type t = {
  seq : int;
  parts : (int * string) list;
  kind : Persist.Trace.write_kind;
  func : string;
  syscall : int option;
}

let bytes t = List.fold_left (fun acc (_, d) -> acc + String.length d) 0 t.parts

let span t =
  List.fold_left
    (fun (lo, hi) (addr, d) -> (min lo addr, max hi (addr + String.length d)))
    (max_int, 0) t.parts

let contiguous_with unit (s : Persist.Trace.store) =
  match List.rev unit.parts with
  | [] -> false
  | (addr, d) :: _ -> addr + String.length d = s.Persist.Trace.addr

(* The bulk-data heuristic's threshold: non-temporal stores at least this
   large are taken to be file data. *)
let data_threshold = 64

let add ~coalesce vec (s : Persist.Trace.store) ~syscall =
  let fresh =
    {
      seq = s.Persist.Trace.seq;
      parts = [ (s.Persist.Trace.addr, s.Persist.Trace.data) ];
      kind = s.Persist.Trace.kind;
      func = s.Persist.Trace.func;
      syscall;
    }
  in
  match vec with
  | newest :: rest when coalesce ->
    let same_context =
      newest.kind = s.Persist.Trace.kind
      && newest.func = s.Persist.Trace.func
      && newest.syscall = syscall
    in
    let adjacent = same_context && contiguous_with newest s in
    let both_bulk =
      same_context
      && s.Persist.Trace.kind = Persist.Trace.Nt
      && String.length s.Persist.Trace.data >= data_threshold
      && List.for_all (fun (_, d) -> String.length d >= data_threshold) newest.parts
    in
    if adjacent || both_bulk then
      { newest with parts = newest.parts @ [ (s.Persist.Trace.addr, s.Persist.Trace.data) ] }
      :: rest
    else fresh :: vec
  | _ -> fresh :: vec

let apply write t = List.iter (fun (addr, data) -> write ~off:addr data) t.parts

let describe t =
  let lo, hi = span t in
  Printf.sprintf "#%d %s [0x%x, 0x%x) %dB in %d part(s)%s" t.seq t.func lo hi (bytes t)
    (List.length t.parts)
    (match t.syscall with None -> "" | Some i -> Printf.sprintf " (syscall %d)" i)
