type phase = Initial | During of int | After of int

let inaccessible tree =
  List.map
    (fun (path, error) -> Report.Inaccessible { path; error })
    (Vfs.Walker.has_errors tree)

(* A mid-crash state of a non-atomic data write. The paths the operation
   changes are those whose oracle node differs between the pre- and
   post-state (this naturally covers every hard link of the written inode);
   each of those must hold a size between the pre and post sizes and bytes
   explainable as old data, new data, or a freshly-zeroed block. Every
   other path must match the pre-state exactly. *)
let relaxed_node ~path ~(old_n : Vfs.Walker.node) ~(new_n : Vfs.Walker.node)
    ~(actual : Vfs.Walker.node) =
  match (actual.content, old_n.content, new_n.content) with
  | Some got, Some old_c, Some new_c ->
    let lo = min (String.length old_c) (String.length new_c) in
    let hi = max (String.length old_c) (String.length new_c) in
    if String.length got < lo || String.length got > hi then
      [
        Report.Torn_data
          { path; detail = Printf.sprintf "size %d outside [%d, %d]" (String.length got) lo hi };
      ]
    else begin
      let bad = ref None in
      String.iteri
        (fun i c ->
          if !bad = None then begin
            let old_b = if i < String.length old_c then Some old_c.[i] else None in
            let new_b = if i < String.length new_c then Some new_c.[i] else None in
            if not (Some c = old_b || Some c = new_b || c = '\000') then bad := Some i
          end)
        got;
      match !bad with
      | None -> []
      | Some i ->
        [
          Report.Torn_data
            { path; detail = Printf.sprintf "byte %d is %C: neither old, new, nor zero" i got.[i] };
        ]
    end
  | _ -> [ Report.Inaccessible { path; error = "unreadable during torn-write check" } ]

let check_torn_write ~pre ~post ~tree ~syscall =
  let open Vfs.Walker in
  let paths =
    List.sort_uniq String.compare (List.map (fun n -> n.path) (pre @ post @ tree))
  in
  List.concat_map
    (fun path ->
      match (find pre path, find post path, find tree path) with
      | Some old_n, Some new_n, Some actual ->
        if equal_node old_n new_n then
          (* Untouched by the operation: must match exactly. *)
          if equal_node old_n actual then []
          else [ Report.Atomicity { syscall; diffs = diff ~expected:[ old_n ] ~actual:[ actual ] } ]
        else relaxed_node ~path ~old_n ~new_n ~actual
      | Some old_n, None, Some actual | None, Some old_n, Some actual ->
        (* Present in only one oracle version: shouldn't happen for a data
           op, but compare strictly against the version that has it. *)
        if equal_node old_n actual then []
        else [ Report.Atomicity { syscall; diffs = diff ~expected:[ old_n ] ~actual:[ actual ] } ]
      | Some _, Some _, None | Some _, None, None | None, Some _, None ->
        [ Report.Atomicity { syscall; diffs = [ Printf.sprintf "missing: %s" path ] } ]
      | None, None, Some actual ->
        [ Report.Atomicity { syscall; diffs = [ "unexpected: " ^ describe actual ] } ]
      | None, None, None -> [])
    paths

let check_strong ~atomic_data ~workload ~oracle ~phase ~tree =
  let open Vfs.Walker in
  match phase with
  | Initial ->
    let expected = Oracle.pre oracle 0 in
    let d = diff ~expected ~actual:tree in
    if d = [] then [] else [ Report.Synchrony { syscall = "mkfs"; diffs = d } ]
  | During i ->
    let call = List.nth workload i in
    let pre = Oracle.pre oracle i and post = Oracle.post oracle i in
    let syscall = Vfs.Syscall.to_string call in
    if Vfs.Syscall.is_data_op call && not atomic_data then
      if equal tree pre || equal tree post then []
      else check_torn_write ~pre ~post ~tree ~syscall
    else if equal tree pre || equal tree post then []
    else
      [
        Report.Atomicity
          {
            syscall;
            diffs =
              List.map (fun d -> "vs post: " ^ d) (diff ~expected:post ~actual:tree)
              @ List.map (fun d -> "vs pre: " ^ d) (diff ~expected:pre ~actual:tree);
          };
      ]
  | After i ->
    let post = Oracle.post oracle i in
    let d = diff ~expected:post ~actual:tree in
    if d = [] then []
    else [ Report.Synchrony { syscall = Vfs.Syscall.to_string (List.nth workload i); diffs = d } ]

let judged ~consistency ~workload phase =
  match (consistency, phase) with
  | Vfs.Driver.Strong, _ -> true
  | Vfs.Driver.Weak, After i -> Vfs.Syscall.is_fsync_family (List.nth workload i)
  | Vfs.Driver.Weak, (Initial | During _) -> false

(* Weak systems only promise durability at fsync boundaries, the only
   phases [judged] admits for them. *)
let check_weak ~workload ~oracle ~phase ~tree =
  match phase with
  | Initial | During _ -> []
  | After i -> (
    let call = List.nth workload i in
    let post = Oracle.post oracle i in
    match call with
    | Vfs.Syscall.Sync ->
      let d = Vfs.Walker.diff ~expected:post ~actual:tree in
      if d = [] then [] else [ Report.Synchrony { syscall = "sync"; diffs = d } ]
    | Vfs.Syscall.Fsync _ | Vfs.Syscall.Fdatasync _ -> (
      match Oracle.target oracle i with
      | None -> []
      | Some path -> (
        match (Vfs.Walker.find post path, Vfs.Walker.find tree path) with
        | None, _ -> []
        | Some expected, Some actual ->
          if Vfs.Walker.equal_node expected actual then []
          else
            [
              Report.Synchrony
                {
                  syscall = Vfs.Syscall.to_string call;
                  diffs =
                    Vfs.Walker.diff ~expected:[ expected ] ~actual:[ actual ];
                };
            ]
        | Some _, None ->
          [
            Report.Synchrony
              {
                syscall = Vfs.Syscall.to_string call;
                diffs = [ Printf.sprintf "missing: %s (was fsynced)" path ];
              };
          ]))
    | _ -> [])

let check ~atomic_data ~consistency ~workload ~oracle ~phase ~tree =
  let errors = inaccessible tree in
  let semantic =
    (* Inaccessible nodes already explain any tree mismatch; don't pile a
       noisier atomicity report on top. *)
    if errors <> [] then []
    else
      match consistency with
      | Vfs.Driver.Strong -> check_strong ~atomic_data ~workload ~oracle ~phase ~tree
      | Vfs.Driver.Weak -> check_weak ~workload ~oracle ~phase ~tree
  in
  errors @ semantic
