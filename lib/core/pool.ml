let default_jobs () =
  let n = Domain.recommended_domain_count () in
  max 1 (min n 8)

type ('a, 'b) state = {
  mutex : Mutex.t;
  mutable remaining : 'a Seq.t;
  mutable next_index : int;  (* next task to dispatch *)
  mutable next_emit : int;  (* next result to hand to the callback *)
  waiting : (int, 'a * 'b) Hashtbl.t;  (* finished ahead of [next_emit] *)
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

let fail st e = if st.failure = None then st.failure <- Some e

(* Under the lock: hand every waiting result that is next in index order to
   [emit]. *)
let rec flush st emit =
  match Hashtbl.find_opt st.waiting st.next_emit with
  | None -> ()
  | Some (x, y) ->
    let i = st.next_emit in
    Hashtbl.remove st.waiting i;
    st.next_emit <- i + 1;
    emit i x y;
    flush st emit

(* Run tasks until the queue drains. The first exception, from [f], [stop],
   the sequence or [emit], is kept and stops every worker's dispatch. *)
let rec worker st ~stop f emit () =
  match Option.map (fun (i, x) -> (i, x, f x)) (next_task st ~stop) with
  | None -> ()
  | Some (i, x, y) ->
    Mutex.protect st.mutex (fun () ->
        if st.failure = None then begin
          Hashtbl.replace st.waiting i (x, y);
          try flush st emit with e -> fail st e
        end);
    worker st ~stop f emit ()
  | exception e -> Mutex.protect st.mutex (fun () -> fail st e)

let iter ?jobs ?(stop = fun () -> false) f seq emit =
  let jobs = match jobs with None -> default_jobs () | Some j -> max 1 (min j 64) in
  let st =
    {
      mutex = Mutex.create ();
      remaining = seq;
      next_index = 0;
      next_emit = 0;
      waiting = Hashtbl.create 16;
      stopped = false;
      failure = None;
    }
  in
  if jobs <= 1 then worker st ~stop f emit ()
  else List.iter Domain.join (List.init jobs (fun _ -> Domain.spawn (worker st ~stop f emit)));
  match st.failure with Some e -> raise e | None -> ()
