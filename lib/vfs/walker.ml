type node = {
  path : string;
  kind : Types.file_kind option;
  size : int;
  nlink : int;
  content : string option;
  entries : string list option;
  xattrs : (string * string) list;  (* sorted; empty when unsupported *)
  error : string option;
}

type tree = node list

let xattrs_of (h : Handle.t) path =
  match h.Handle.listxattr ~path with
  | Error _ -> []
  | Ok names ->
    List.filter_map
      (fun name ->
        match h.Handle.getxattr ~path ~name with
        | Ok v -> Some (name, v)
        | Error _ -> None)
      names

(* The node at [path], from an already-successful stat. For directories the
   entry names come back inside the node ([entries]); [capture] recurses
   over them. *)
let node_of (h : Handle.t) path (st : Types.stat) =
  match st.Types.st_kind with
  | Types.Reg ->
    let content, error =
      match h.Handle.read_file ~path with
      | Ok c -> (Some c, None)
      | Error e -> (None, Some ("read: " ^ Errno.to_string e))
    in
    {
      path;
      kind = Some Types.Reg;
      size = st.Types.st_size;
      nlink = st.Types.st_nlink;
      content;
      entries = None;
      xattrs = xattrs_of h path;
      error;
    }
  | Types.Dir -> (
    match h.Handle.readdir ~path with
    | Error e ->
      {
        path;
        kind = Some Types.Dir;
        size = st.Types.st_size;
        nlink = st.Types.st_nlink;
        content = None;
        entries = None;
        xattrs = [];
        error = Some ("readdir: " ^ Errno.to_string e);
      }
    | Ok dirents ->
      let names = List.map (fun d -> d.Types.d_name) dirents in
      (* Directory sizes are a per-file-system convention; normalize to
         the entry count so trees from different systems compare. *)
      {
        path;
        kind = Some Types.Dir;
        size = List.length names;
        nlink = st.Types.st_nlink;
        content = None;
        entries = Some names;
        xattrs = xattrs_of h path;
        error = None;
      })

let capture (h : Handle.t) =
  let nodes = ref [] in
  let rec visit path =
    match h.Handle.stat ~path with
    | Error e ->
      nodes :=
        {
          path;
          kind = None;
          size = 0;
          nlink = 0;
          content = None;
          entries = None;
          xattrs = [];
          error = Some ("stat: " ^ Errno.to_string e);
        }
        :: !nodes
    | Ok st ->
      let n = node_of h path st in
      nodes := n :: !nodes;
      (match n.entries with
      | Some names -> List.iter (fun name -> visit (Path.concat path name)) names
      | None -> ())
  in
  visit "/";
  List.sort (fun a b -> String.compare a.path b.path) !nodes

let find tree path = List.find_opt (fun n -> n.path = path) tree

(* --- digests ---

   One stable serialization per node, covering exactly the fields
   [equal_node] reads (plus [nlink] unconditionally — the worst that extra
   byte can cost is a cache miss, never a collision). The separators are unambiguous because
   paths and entry names cannot contain control characters. *)

let serialize_node buf n =
  Buffer.add_string buf n.path;
  Buffer.add_char buf '\001';
  Buffer.add_string buf
    (match n.kind with None -> "?" | Some k -> Types.kind_to_string k);
  Buffer.add_string buf (string_of_int n.size);
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int n.nlink);
  (match n.content with
  | None -> Buffer.add_char buf '\002'
  | Some c ->
    Buffer.add_char buf '=';
    Buffer.add_string buf c);
  (match n.entries with
  | None -> Buffer.add_char buf '\003'
  | Some es ->
    List.iter
      (fun e ->
        Buffer.add_char buf ';';
        Buffer.add_string buf e)
      es);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\004';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    n.xattrs;
  (match n.error with
  | None -> ()
  | Some e ->
    Buffer.add_char buf '!';
    Buffer.add_string buf e);
  Buffer.add_char buf '\n'

(* FNV-1a, same constants as [Pmem.Image]'s per-line hashes, finalized by
   [Pmem.Checksum.mix] (unmixed, equal-offset swaps between two nodes cancel
   in the sum). Per-node hashes are folded into a root by plain addition,
   then mixed with the node count. The serialization starts with the path,
   so the sum still distinguishes "same bytes at a different path". *)

let fnv_basis = 0x1bf29ce484222325
let fnv_prime = 0x100000001b3

let hash_node n =
  let buf = Buffer.create 128 in
  serialize_node buf n;
  let s = Buffer.contents buf in
  let h = ref fnv_basis in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  Pmem.Checksum.mix !h

let digest tree =
  let root = List.fold_left (fun acc n -> acc + hash_node n) 0 tree in
  root lxor (List.length tree * fnv_prime)

let equal_node a b =
  a.path = b.path && a.kind = b.kind && a.size = b.size && a.content = b.content
  && a.entries = b.entries && a.xattrs = b.xattrs && a.error = b.error
  && (a.kind <> Some Types.Reg || a.nlink = b.nlink)

let equal a b = List.length a = List.length b && List.for_all2 equal_node a b

let describe n =
  let kind = match n.kind with None -> "?" | Some k -> Types.kind_to_string k in
  let detail =
    match (n.error, n.content, n.entries) with
    | Some e, _, _ -> Printf.sprintf "error=%s" e
    | None, Some c, _ ->
      let preview = if String.length c > 32 then String.sub c 0 32 ^ "..." else c in
      Printf.sprintf "content=%S" preview
    | None, None, Some es -> Printf.sprintf "entries=[%s]" (String.concat "; " es)
    | None, None, None -> ""
  in
  let xa =
    if n.xattrs = [] then ""
    else
      Printf.sprintf " xattrs={%s}"
        (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) n.xattrs))
  in
  Printf.sprintf "%s %s size=%d nlink=%d %s%s" kind n.path n.size n.nlink detail xa

let diff ~expected ~actual =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let rec go e a =
    match (e, a) with
    | [], [] -> ()
    | en :: e', [] ->
      add "missing: %s" (describe en);
      go e' []
    | [], an :: a' ->
      add "unexpected: %s" (describe an);
      go [] a'
    | en :: e', an :: a' ->
      let c = String.compare en.path an.path in
      if c < 0 then begin
        add "missing: %s" (describe en);
        go e' a
      end
      else if c > 0 then begin
        add "unexpected: %s" (describe an);
        go e a'
      end
      else begin
        if not (equal_node en an) then
          add "mismatch at %s: expected %s, got %s" en.path (describe en)
            (describe an);
        go e' a'
      end
  in
  go expected actual;
  List.rev !out

let has_errors tree =
  List.filter_map (fun n -> Option.map (fun e -> (n.path, e)) n.error) tree

let pp ppf tree =
  List.iter (fun n -> Format.fprintf ppf "%s@." (describe n)) tree
