let default_jobs () =
  let n = Domain.recommended_domain_count () in
  max 1 (min n 8)

type ('a, 'b) state = {
  mutex : Mutex.t;
  mutable remaining : 'a Seq.t;
  mutable next_index : int;
  mutable results : (int * 'a * 'b) list;  (* completion order *)
  mutable stopped : bool;
  mutable failure : exn option;
}

(* Pull the next task, or [None] to drain. Forcing the sequence happens
   here, under the lock: task generation (e.g. ACE workload expansion) is
   cheap relative to the work itself. *)
let next_task st ~stop =
  Mutex.protect st.mutex (fun () ->
      if st.stopped || st.failure <> None then None
      else if stop () then begin
        st.stopped <- true;
        None
      end
      else
        match st.remaining () with
        | Seq.Nil -> None
        | Seq.Cons (x, rest) ->
          st.remaining <- rest;
          let i = st.next_index in
          st.next_index <- i + 1;
          Some (i, x))

(* Run tasks until the queue drains. The first exception, from [f], [stop]
   or the sequence, is kept and stops every worker's dispatch. *)
let rec worker st ~stop f () =
  match Option.map (fun (i, x) -> (i, x, f x)) (next_task st ~stop) with
  | None -> ()
  | Some r ->
    Mutex.protect st.mutex (fun () -> st.results <- r :: st.results);
    worker st ~stop f ()
  | exception e ->
    Mutex.protect st.mutex (fun () -> if st.failure = None then st.failure <- Some e)

let map ?jobs ?(stop = fun () -> false) f seq =
  let jobs = match jobs with None -> default_jobs () | Some j -> max 1 (min j 64) in
  let st =
    {
      mutex = Mutex.create ();
      remaining = seq;
      next_index = 0;
      results = [];
      stopped = false;
      failure = None;
    }
  in
  if jobs <= 1 then worker st ~stop f ()
  else List.iter Domain.join (List.init jobs (fun _ -> Domain.spawn (worker st ~stop f)));
  (match st.failure with Some e -> raise e | None -> ());
  List.sort (fun (i, _, _) (j, _, _) -> compare (i : int) j) st.results
