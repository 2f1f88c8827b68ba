module Types = Vfs.Types
module Errno = Vfs.Errno

type inode = {
  ino : int;
  kind : Types.file_kind;
  mutable nlink : int;
  mutable data : string;  (* Reg only *)
  entries : (string, int) Hashtbl.t;  (* Dir only *)
  xattrs : (string, string) Hashtbl.t;
  mutable opens : int;
}

type fs = {
  inodes : (int, inode) Hashtbl.t;
  mutable next_ino : int;
}

module Fs = struct
  type t = fs

  let name = "memfs"
  let name_max = 255
  let root_ino = 1

  let get t ino = Hashtbl.find_opt t.inodes ino

  let get_exn t ino =
    match get t ino with
    | Some i -> i
    | None -> invalid_arg "memfs: dangling inode"

  let alloc t kind =
    let ino = t.next_ino in
    t.next_ino <- ino + 1;
    let node =
      {
        ino;
        kind;
        nlink = (match kind with Types.Reg -> 1 | Types.Dir -> 2);
        data = "";
        entries = Hashtbl.create 8;
        xattrs = Hashtbl.create 4;
        opens = 0;
      }
    in
    Hashtbl.replace t.inodes ino node;
    node

  let lookup t ~dir ~name =
    match get t dir with
    | None -> Error Errno.ENOENT
    | Some d when d.kind <> Types.Dir -> Error Errno.ENOTDIR
    | Some d -> (
      match Hashtbl.find_opt d.entries name with
      | Some ino -> Ok ino
      | None -> Error Errno.ENOENT)

  let getattr t ~ino =
    match get t ino with
    | None -> Error Errno.ENOENT
    | Some i ->
      Ok
        {
          Types.st_ino = i.ino;
          st_kind = i.kind;
          st_size =
            (match i.kind with
            | Types.Reg -> String.length i.data
            | Types.Dir -> Hashtbl.length i.entries);
          st_nlink = i.nlink;
        }

  let mkdir t ~dir ~name =
    let d = get_exn t dir in
    let node = alloc t Types.Dir in
    Hashtbl.replace d.entries name node.ino;
    d.nlink <- d.nlink + 1;
    Ok node.ino

  let create t ~dir ~name =
    let d = get_exn t dir in
    let node = alloc t Types.Reg in
    Hashtbl.replace d.entries name node.ino;
    Ok node.ino

  let link t ~ino ~dir ~name =
    let d = get_exn t dir in
    let f = get_exn t ino in
    Hashtbl.replace d.entries name ino;
    f.nlink <- f.nlink + 1;
    Ok ()

  let maybe_reclaim t node =
    if node.nlink = 0 && node.opens = 0 then Hashtbl.remove t.inodes node.ino

  let drop_link t node =
    node.nlink <- node.nlink - 1;
    maybe_reclaim t node

  let unlink t ~dir ~name =
    let d = get_exn t dir in
    let ino = Hashtbl.find d.entries name in
    let f = get_exn t ino in
    Hashtbl.remove d.entries name;
    drop_link t f;
    Ok ()

  let rmdir t ~dir ~name =
    let d = get_exn t dir in
    let ino = Hashtbl.find d.entries name in
    let victim = get_exn t ino in
    Hashtbl.remove d.entries name;
    d.nlink <- d.nlink - 1;
    victim.nlink <- 0;
    maybe_reclaim t victim;
    Ok ()

  let rename t ~odir ~oname ~ndir ~nname =
    let od = get_exn t odir and nd = get_exn t ndir in
    let ino = Hashtbl.find od.entries oname in
    let moved = get_exn t ino in
    let tino = Hashtbl.find_opt nd.entries nname in
    (* Remove an overwritten target first (Posix validated compatibility). *)
    (match tino with
    | None -> ()
    | Some ti ->
      let target = get_exn t ti in
      (match target.kind with
      | Types.Reg -> drop_link t target
      | Types.Dir ->
        nd.nlink <- nd.nlink - 1;
        target.nlink <- 0;
        maybe_reclaim t target));
    Hashtbl.remove od.entries oname;
    Hashtbl.replace nd.entries nname ino;
    if moved.kind = Types.Dir && odir <> ndir then begin
      od.nlink <- od.nlink - 1;
      nd.nlink <- nd.nlink + 1
    end;
    Ok ()

  let readdir t ~dir =
    let d = get_exn t dir in
    Ok (Hashtbl.fold (fun name ino acc -> { Types.d_ino = ino; d_name = name } :: acc) d.entries [])

  let read t ~ino ~off ~len =
    let f = get_exn t ino in
    let size = String.length f.data in
    if off >= size then Ok ""
    else Ok (String.sub f.data off (min len (size - off)))

  let splice old ~off data =
    let dlen = String.length data in
    let old_len = String.length old in
    let new_len = max old_len (off + dlen) in
    let b = Bytes.make new_len '\000' in
    Bytes.blit_string old 0 b 0 old_len;
    Bytes.blit_string data 0 b off dlen;
    Bytes.unsafe_to_string b

  let write t ~ino ~off ~data =
    let f = get_exn t ino in
    f.data <- splice f.data ~off data;
    Ok (String.length data)

  let truncate t ~ino ~size =
    let f = get_exn t ino in
    let old_len = String.length f.data in
    if size <= old_len then f.data <- String.sub f.data 0 size
    else f.data <- f.data ^ String.make (size - old_len) '\000';
    Ok ()

  let fallocate t ~ino ~off ~len ~keep_size =
    let f = get_exn t ino in
    if not keep_size && off + len > String.length f.data then
      f.data <- f.data ^ String.make (off + len - String.length f.data) '\000';
    Ok ()

  let setxattr t ~ino ~name ~value =
    let i = get_exn t ino in
    Hashtbl.replace i.xattrs name value;
    Ok ()

  let getxattr t ~ino ~name =
    let i = get_exn t ino in
    match Hashtbl.find_opt i.xattrs name with
    | Some v -> Ok v
    | None -> Error Errno.ENOENT

  let listxattr t ~ino =
    let i = get_exn t ino in
    Ok (Hashtbl.fold (fun k _ acc -> k :: acc) i.xattrs [])

  let removexattr t ~ino ~name =
    let i = get_exn t ino in
    if Hashtbl.mem i.xattrs name then begin
      Hashtbl.remove i.xattrs name;
      Ok ()
    end
    else Error Errno.ENOENT

  let fsync _ ~ino:_ = Ok ()
  let sync _ = ()

  let iget t ~ino =
    match get t ino with None -> () | Some i -> i.opens <- i.opens + 1

  let iput t ~ino =
    match get t ino with
    | None -> ()
    | Some i ->
      i.opens <- max 0 (i.opens - 1);
      maybe_reclaim t i
end

module P = Vfs.Posix.Make (Fs)

let handle () =
  let t = { inodes = Hashtbl.create 64; next_ino = 2 } in
  Hashtbl.replace t.inodes Fs.root_ino
    {
      ino = Fs.root_ino;
      kind = Types.Dir;
      nlink = 2;
      data = "";
      entries = Hashtbl.create 8;
      xattrs = Hashtbl.create 4;
      opens = 0;
    };
  P.handle (P.init t)
