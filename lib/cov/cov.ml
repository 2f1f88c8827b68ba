(* The calling domain's collector: [Some tbl] while inside [collect]. *)
let slot : (string, unit) Hashtbl.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let mark p =
  match Domain.DLS.get slot with
  | None -> ()
  | Some tbl -> Hashtbl.replace tbl p ()

let collect f =
  let prev = Domain.DLS.get slot in
  let tbl = Hashtbl.create 64 in
  Domain.DLS.set slot (Some tbl);
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f in
  (v, List.sort String.compare (Hashtbl.fold (fun p () acc -> p :: acc) tbl []))
