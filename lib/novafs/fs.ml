(** The NOVA / NOVA-Fortis model: log-structured metadata with per-inode
    logs, a lite journal for multi-word transactions, copy-on-write data, and
    DRAM indexes rebuilt at mount.

    Commit discipline (correct behaviour, bugs off):
    - single-inode operations append log entries, fence, then publish them
      with one atomic 8-byte tail update;
    - multi-inode operations (and link-count changes) funnel every published
      word through the lite {!Journal};
    - data writes are copy-on-write: fresh pages are persisted before the
      entry naming them is appended, so a torn write can never surface.

    Each [Bugs] switch disables one piece of this discipline, reproducing
    the corresponding bug from the paper's Table 1. *)

module Types = Vfs.Types
module Errno = Vfs.Errno
module Pm = Persist.Pm
module L = Layout

let ( let* ) = Result.bind

type dentry = { target : int; entry_addr : int  (** media address of the Dentry_add *) }

type inode = {
  ino : int;
  kind : Types.file_kind;
  mutable links : int;
  mutable size : int;
  mutable head : int;  (** first log page *)
  mutable tail : int;  (** absolute byte address where the next entry goes *)
  mutable tail_page : int;
  extents : (int, int) Hashtbl.t;  (** file page index -> device page *)
  dentries : (string, dentry) Hashtbl.t;  (** directories only *)
  mutable opens : int;
  mutable error : Errno.t option;  (** degraded inode: all access returns this *)
  mutable content_csum : int;  (** fortis: expected crc32 of file content *)
  mutable csum_tracked : bool;  (** fortis: whether content_csum is authoritative *)
}

type t = {
  pm : Pm.t;
  lay : L.t;
  bugs : Bugs.t;
  fortis : bool;
  inodes : (int, inode) Hashtbl.t;
  alloc : Blockalloc.t;
  mutable unordered_extension : bool;
      (** Bug 3: a log extension in the current operation skipped its
          ordering fences, so the publish must not fence beforehand either. *)
}

let name = "nova"
let name_max = 24
let root_ino = L.root_ino
let page_size t = t.lay.L.cfg.L.page_size

(* ------------------------------------------------------------------ *)
(* Inode slot encoding                                                 *)

let slot_prefix ~valid ~kind ~links ~head =
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 (if valid then '\001' else '\000');
  Bytes.set b 1 (match kind with Types.Reg -> '\001' | Types.Dir -> '\002');
  Bytes.set_uint16_le b 2 links;
  Bytes.set_int32_le b 4 (Int32.of_int head);
  Bytes.to_string b

let slot_csum prefix = Pmem.Checksum.crc32 prefix

let write_slot t ~off ~valid ~kind ~links ~head ~tail =
  let prefix = slot_prefix ~valid ~kind ~links ~head in
  let b = Bytes.make L.inode_used_bytes '\000' in
  Bytes.blit_string prefix 0 b 0 8;
  Bytes.set_int64_le b L.i_tail (Int64.of_int tail);
  if t.fortis then Bytes.set_int32_le b L.i_csum (Int32.of_int (slot_csum prefix));
  Pm.memcpy_nt t.pm ~off (Bytes.to_string b)

(* Journal records for updating inode fields in place. *)

let le16 v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  Bytes.to_string b

let le64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

let tail_record t ino tail = { Journal.addr = L.inode_off t.lay ino + L.i_tail; data = le64 tail }

(* A link-count change must also refresh the slot checksum and the replica
   (unless bug 10 withholds the replica update). *)
let links_records t inode links =
  let prefix =
    slot_prefix ~valid:true ~kind:inode.kind ~links ~head:inode.head
  in
  let primary =
    [ { Journal.addr = L.inode_off t.lay inode.ino + L.i_links; data = le16 links } ]
  in
  let primary =
    if t.fortis then
      primary
      @ [ { Journal.addr = L.inode_off t.lay inode.ino + L.i_csum; data = le32 (slot_csum prefix) } ]
    else primary
  in
  if t.fortis && not t.bugs.Bugs.bug10_replica_not_updated then
    primary
    @ [
        { Journal.addr = L.replica_off t.lay inode.ino + L.i_links; data = le16 links };
        { Journal.addr = L.replica_off t.lay inode.ino + L.i_csum; data = le32 (slot_csum prefix) };
      ]
  else primary

(* ------------------------------------------------------------------ *)
(* DRAM helpers                                                        *)

let get t ino =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Errno.ENOENT
  | Some i -> Ok i

let live t ino =
  let* i = get t ino in
  match i.error with Some e -> Error e | None -> Ok i

let fresh_inode ~ino ~kind ~links ~head ~tail =
  {
    ino;
    kind;
    links;
    size = 0;
    head;
    tail;
    tail_page = tail / 1;
    (* fixed up by caller *)
    extents = Hashtbl.create 8;
    dentries = Hashtbl.create 8;
    opens = 0;
    error = None;
    content_csum = 0;
    csum_tracked = false;
  }

let alloc_ino t =
  let n = t.lay.L.cfg.L.n_inodes in
  let rec scan i =
    if i >= n then Error Errno.ENOSPC
    else if Hashtbl.mem t.inodes i then scan (i + 1)
    else Ok i
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Log machinery                                                       *)

let init_log_page t pg =
  (* Fresh log pages are zeroed so the entry scanner can rely on a zero type
     byte marking the end of the used region. *)
  let off = L.page_off t.lay pg in
  Pm.memset_nt t.pm ~off ~len:(page_size t) '\000';
  let header = Bytes.make L.lp_header '\000' in
  Bytes.set_int32_le header 0 (Int32.of_int L.log_page_magic);
  if t.bugs.Bugs.bug2_unflushed_log_init then
    (* Bug 2 (PM): the header is written with a cached store and never
       flushed; it can vanish in a crash even after the syscall returns. *)
    Pm.store t.pm ~off (Bytes.to_string header)
  else Pm.memcpy_nt t.pm ~off (Bytes.to_string header)

(* Ensure [need] bytes of space at the tail, extending the log if required.
   Returns the address where the entry must be written. *)
let make_room t inode ~need =
  let psz = page_size t in
  let page_end = L.page_off t.lay inode.tail_page + psz in
  if inode.tail + need <= page_end then Ok inode.tail
  else begin
    Cov.mark "nova.log.extend";
    let* pg = Blockalloc.alloc t.alloc in
    init_log_page t pg;
    if t.bugs.Bugs.bug3_tail_before_page_init then t.unordered_extension <- true
    else Pm.fence t.pm;
    Pm.nt_u32 t.pm ~off:(L.page_off t.lay inode.tail_page + L.lp_next) pg;
    if not t.bugs.Bugs.bug3_tail_before_page_init then Pm.fence t.pm;
    inode.tail_page <- pg;
    inode.tail <- L.page_off t.lay pg + L.lp_header;
    Ok inode.tail
  end

(* Append one encoded entry at the tail (without publishing it). Returns the
   address of the entry; the in-DRAM tail advances, the on-media tail does
   not. *)
let append_raw t inode entry =
  let bytes = Entry.encode ~fortis:t.fortis entry in
  let* addr = make_room t inode ~need:(String.length bytes) in
  (if t.fortis && t.bugs.Bugs.bug9_nonatomic_entry_csum then
     match entry with
     | Entry.Dentry_del _ | Entry.Setattr _ ->
       (* Bug 9 (PM): the entry body is stored non-temporally but its
          checksum is patched in with a cached store that is never flushed. *)
       let without =
         let b = Bytes.of_string bytes in
         Bytes.set_int32_le b Entry.csum_offset 0l;
         Bytes.to_string b
       in
       let csum = String.sub bytes Entry.csum_offset 4 in
       Pm.memcpy_nt t.pm ~off:addr without;
       Pm.store t.pm ~off:(addr + Entry.csum_offset) csum
     | Entry.Dentry_add _ | Entry.File_write _ -> Pm.memcpy_nt t.pm ~off:addr bytes
   else Pm.memcpy_nt t.pm ~off:addr bytes);
  inode.tail <- addr + String.length bytes;
  Ok addr

(* Operations that append several entries before one publish must not leave
   the in-DRAM tail advanced when a later step fails (e.g. ENOSPC on the
   second append of a rename): the next successful operation would publish
   the orphaned entries. Snapshot and restore the volatile cursor around
   fallible multi-append sequences. *)
let with_tail_rollback inodes f =
  let saved = List.map (fun (i : inode) -> (i, i.tail, i.tail_page)) inodes in
  match f () with
  | Ok _ as ok -> ok
  | Error _ as e ->
    List.iter
      (fun ((i : inode), tail, tail_page) ->
        i.tail <- tail;
        i.tail_page <- tail_page)
      saved;
    e

(* Bug 3 consumes the ordering fence that normally separates log-structure
   preparation from publication. *)
let pre_publish_fence t =
  if t.unordered_extension then t.unordered_extension <- false else Pm.fence t.pm

let publish_tail t inode =
  pre_publish_fence t;
  Pm.persist_u64 t.pm ~off:(L.inode_off t.lay inode.ino + L.i_tail) inode.tail

(* Publish tails/links of several inodes atomically through the journal. *)
let publish_journaled t records =
  let ordered = not t.unordered_extension in
  t.unordered_extension <- false;
  if ordered then Pm.fence t.pm;
  Journal.run ~ordered t.pm t.lay records

(* ------------------------------------------------------------------ *)
(* Data helpers                                                        *)

let read_page t inode idx =
  match Hashtbl.find_opt inode.extents idx with
  | None -> String.make (page_size t) '\000'
  | Some pg -> Pm.read t.pm ~off:(L.page_off t.lay pg) ~len:(page_size t)

let read_range t inode ~off ~len =
  let psz = page_size t in
  let buf = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let abs = off + pos in
      let idx = abs / psz and in_page = abs mod psz in
      let n = min (psz - in_page) (len - pos) in
      let page = read_page t inode idx in
      Bytes.blit_string page in_page buf pos n;
      go (pos + n)
    end
  in
  go 0;
  Bytes.to_string buf

let content t inode = read_range t inode ~off:0 ~len:inode.size

let free_extent_pages t inode ~from_idx =
  Hashtbl.iter
    (fun idx pg -> if idx >= from_idx then Blockalloc.free t.alloc pg)
    inode.extents;
  let doomed = Hashtbl.fold (fun idx _ acc -> if idx >= from_idx then idx :: acc else acc)
      inode.extents [] in
  List.iter (Hashtbl.remove inode.extents) doomed

(* Free the log pages of an inode, from head up to and including the page
   holding the committed tail. Pages linked beyond the tail page belong to
   an unpublished extension (a crash may have persisted the link without the
   tail update) and were never claimed by the allocator rebuild, so they
   must not be freed here. *)
let free_log_chain t ~head ~tail_page =
  let rec go pg =
    if pg <> 0 && pg < t.lay.L.cfg.L.n_pages then begin
      let next = Pm.read_u32 t.pm ~off:(L.page_off t.lay pg + L.lp_next) in
      Blockalloc.free t.alloc pg;
      if pg <> tail_page then go next
    end
  in
  go head

let reclaim_inode t inode =
  (* Invalidate the slot so the next mount does not resurrect the orphan;
     data and log pages return to the volatile free list. *)
  Pm.memcpy_nt t.pm ~off:(L.inode_off t.lay inode.ino) "\000";
  if t.fortis then Pm.memcpy_nt t.pm ~off:(L.replica_off t.lay inode.ino) "\000";
  Pm.fence t.pm;
  Hashtbl.iter (fun _ pg -> Blockalloc.free t.alloc pg) inode.extents;
  free_log_chain t ~head:inode.head ~tail_page:inode.tail_page;
  Hashtbl.remove t.inodes inode.ino

let drop_link t inode =
  inode.links <- inode.links - 1;
  if inode.links = 0 && inode.opens = 0 then reclaim_inode t inode

(* ------------------------------------------------------------------ *)
(* Inode creation (creat / mkdir share this)                           *)

let make_inode t ~dir ~name:fname ~kind =
  let d = Hashtbl.find t.inodes dir in
  let* ino = alloc_ino t in
  let* pg = Blockalloc.alloc t.alloc in
  let links = match kind with Types.Reg -> 1 | Types.Dir -> 2 in
  let tail = L.page_off t.lay pg + L.lp_header in
  let persist_new_inode () =
    init_log_page t pg;
    write_slot t ~off:(L.inode_off t.lay ino) ~valid:true ~kind ~links ~head:pg ~tail;
    if t.fortis then
      write_slot t ~off:(L.replica_off t.lay ino) ~valid:true ~kind ~links ~head:pg ~tail;
    Pm.fence t.pm
  in
  let node = fresh_inode ~ino ~kind ~links ~head:pg ~tail in
  node.tail_page <- pg;
  Hashtbl.replace t.inodes ino node;
  let finish_dentry () =
    let* addr = append_raw t d (Entry.Dentry_add { ino; name = fname; valid = true }) in
    (match kind with
    | Types.Reg -> publish_tail t d
    | Types.Dir ->
      (* mkdir also bumps the parent's link count: one journaled tx. *)
      d.links <- d.links + 1;
      publish_journaled t (tail_record t d.ino d.tail :: links_records t d d.links));
    Hashtbl.replace d.dentries fname { target = ino; entry_addr = addr };
    Ok ino
  in
  if t.bugs.Bugs.bug1_dentry_before_inode then begin
    (* Bug 1 (logic): the directory entry is committed before the new inode
       slot exists on media; a crash in between leaves a dangling dentry
       that recovery rejects. *)
    let* r = finish_dentry () in
    persist_new_inode ();
    Ok r
  end
  else begin
    persist_new_inode ();
    finish_dentry ()
  end

(* ------------------------------------------------------------------ *)
(* INODE_OPS                                                           *)

let lookup t ~dir ~name =
  let* d = live t dir in
  if d.kind <> Types.Dir then Error Errno.ENOTDIR
  else
    match Hashtbl.find_opt d.dentries name with
    | Some de -> Ok de.target
    | None -> Error Errno.ENOENT

let getattr t ~ino =
  let* i = get t ino in
  match i.error with
  | Some e -> Error e
  | None ->
    Ok
      {
        Types.st_ino = ino;
        st_kind = i.kind;
        st_size = (match i.kind with Types.Reg -> i.size | Types.Dir -> Hashtbl.length i.dentries);
        st_nlink = i.links;
      }

let create t ~dir ~name =
  Cov.mark "nova.create";
  let* d = live t dir in
  let* ino = make_inode t ~dir:d.ino ~name ~kind:Types.Reg in
  Ok ino

let mkdir t ~dir ~name =
  Cov.mark "nova.mkdir";
  let* d = live t dir in
  let* ino = make_inode t ~dir:d.ino ~name ~kind:Types.Dir in
  Ok ino

let link t ~ino ~dir ~name =
  Cov.mark "nova.link";
  let* f = live t ino in
  let* d = live t dir in
  if f.links >= 0xFFFF then Error Errno.EMLINK
  else begin
    if t.bugs.Bugs.bug6_inplace_link_count then begin
      (* Bug 6 (logic): the link count is bumped in place and persisted
         before the new dentry is committed. Deciding that the in-place
         update is safe requires re-reading the inode's log from media —
         the extra read that made the journalled fix *faster* in the
         paper's microbenchmark. *)
      let rec scan_chain pg =
        if pg <> 0 && pg < t.lay.L.cfg.L.n_pages then begin
          let _ = Pm.read t.pm ~off:(L.page_off t.lay pg) ~len:(page_size t) in
          if pg <> f.tail_page then
            scan_chain (Pm.read_u32 t.pm ~off:(L.page_off t.lay pg + L.lp_next))
        end
      in
      scan_chain f.head;
      let rec scan_dir pg =
        if pg <> 0 && pg < t.lay.L.cfg.L.n_pages then begin
          let _ = Pm.read t.pm ~off:(L.page_off t.lay pg) ~len:(page_size t) in
          if pg <> d.tail_page then
            scan_dir (Pm.read_u32 t.pm ~off:(L.page_off t.lay pg + L.lp_next))
        end
      in
      scan_dir d.head;
      Pm.memcpy_nt t.pm ~off:(L.inode_off t.lay ino + L.i_links) (le16 (f.links + 1));
      Pm.flush t.pm ~off:(L.inode_off t.lay ino + L.i_links) ~len:2;
      Pm.fence t.pm
    end;
    let* addr = append_raw t d (Entry.Dentry_add { ino; name; valid = true }) in
    f.links <- f.links + 1;
    if t.bugs.Bugs.bug6_inplace_link_count then publish_tail t d
    else
      publish_journaled t (tail_record t d.ino d.tail :: links_records t f f.links);
    Hashtbl.replace d.dentries name { target = ino; entry_addr = addr };
    Ok ()
  end

let unlink t ~dir ~name =
  Cov.mark "nova.unlink";
  let* d = live t dir in
  let de = Hashtbl.find d.dentries name in
  let* f = get t de.target in
  let* addr_ignored = append_raw t d (Entry.Dentry_del { ino = de.target; name }) in
  ignore addr_ignored;
  let links = f.links - 1 in
  publish_journaled t (tail_record t d.ino d.tail :: links_records t f links);
  Hashtbl.remove d.dentries name;
  drop_link t f;
  Ok ()

let rmdir t ~dir ~name =
  Cov.mark "nova.rmdir";
  let* d = live t dir in
  let de = Hashtbl.find d.dentries name in
  let* victim = get t de.target in
  let* addr_ignored = append_raw t d (Entry.Dentry_del { ino = de.target; name }) in
  ignore addr_ignored;
  d.links <- d.links - 1;
  publish_journaled t (tail_record t d.ino d.tail :: links_records t d d.links);
  Hashtbl.remove d.dentries name;
  victim.links <- 0;
  if victim.opens = 0 then reclaim_inode t victim;
  Ok ()

let rename t ~odir ~oname ~ndir ~nname =
  Cov.mark "nova.rename";
  if odir <> ndir then Cov.mark "nova.rename.crossdir";
  let* od = live t odir in
  let* nd = live t ndir in
  let de = Hashtbl.find od.dentries oname in
  let* moved = get t de.target in
  let target = Hashtbl.find_opt nd.dentries nname in
  if target <> None then Cov.mark "nova.rename.overwrite";
  let victim_reg =
    match target with
    | None -> None
    | Some tde -> (
      match get t tde.target with
      | Ok v when v.kind = Types.Reg -> Some v
      | _ -> None)
  in
  if
    t.bugs.Bugs.bug4_inplace_dentry_invalidate && odir = ndir
    && (target = None || victim_reg <> None)
  then begin
    (* Bug 4 (logic): the performance shortcut itself — invalidate the old
       dentry in place, fix the replaced file's link count in place, and
       publish the new name with a bare tail update, skipping the journalled
       transaction entirely. A crash between the in-place invalidation and
       the tail publish loses the renamed file. *)
    Pm.memcpy_nt t.pm ~off:(de.entry_addr + Entry.valid_offset) "\000";
    Pm.fence t.pm;
    (match victim_reg with
    | Some v -> Pm.memcpy_nt t.pm ~off:(L.inode_off t.lay v.ino + L.i_links) (le16 (v.links - 1))
    | None -> ());
    let* addr = append_raw t nd (Entry.Dentry_add { ino = de.target; name = nname; valid = true }) in
    publish_tail t nd;
    Hashtbl.remove od.dentries oname;
    Hashtbl.replace nd.dentries nname { target = de.target; entry_addr = addr };
    (match victim_reg with Some v -> drop_link t v | None -> ());
    Ok ()
  end
  else begin
  let* addr =
  with_tail_rollback [ od; nd ] (fun () ->
  (* Step 1: unpublish the old name. *)
  let* () =
    if t.bugs.Bugs.bug4_inplace_dentry_invalidate then begin
      (* Bug 4 (logic): the old dentry is invalidated in place, and that
         write is persisted before the journaled transaction commits. *)
      Pm.memcpy_nt t.pm ~off:(de.entry_addr + Entry.valid_offset) "\000";
      Pm.fence t.pm;
      Ok ()
    end
    else
      let* _ = append_raw t od (Entry.Dentry_del { ino = de.target; name = oname }) in
      Ok ()
  in
  (* Step 2: append the new name. *)
  append_raw t nd (Entry.Dentry_add { ino = de.target; name = nname; valid = true }))
  in
  (* Step 3: one journaled transaction publishes everything. *)
  let target_records =
    match target with
    | None -> []
    | Some tde -> (
      match get t tde.target with
      | Error _ -> []
      | Ok victim -> (
        match victim.kind with
        | Types.Reg -> links_records t victim (victim.links - 1)
        | Types.Dir -> []))
  in
  let dir_link_records =
    if moved.kind = Types.Dir && odir <> ndir then
      links_records t od (od.links - 1) @ links_records t nd (nd.links + 1)
    else []
  in
  let old_tail_in_tx = not t.bugs.Bugs.bug5_tail_outside_journal in
  let records =
    (if odir <> ndir && old_tail_in_tx then [ tail_record t od.ino od.tail ] else [])
    @ [ tail_record t nd.ino nd.tail ]
    @ target_records @ dir_link_records
  in
  (* Same-directory renames share one log, so one tail covers both entries;
     make sure the single record carries the final tail. *)
  let records = if odir = ndir then [ tail_record t nd.ino nd.tail ] @ target_records else records in
  publish_journaled t records;
  if odir <> ndir && not old_tail_in_tx then begin
    (* Bug 5 (logic): the old directory's tail was left out of the
       transaction and is published separately afterwards. *)
    Cov.mark "nova.rename.bug5_window";
    Pm.persist_u64 t.pm ~off:(L.inode_off t.lay od.ino + L.i_tail) od.tail
  end;
  (* DRAM updates. *)
  (match target with
  | None -> ()
  | Some tde -> (
    Hashtbl.remove nd.dentries nname;
    match get t tde.target with
    | Error _ -> ()
    | Ok victim -> (
      match victim.kind with
      | Types.Reg -> drop_link t victim
      | Types.Dir ->
        nd.links <- nd.links - 1;
        victim.links <- 0;
        if victim.opens = 0 then reclaim_inode t victim)));
  Hashtbl.remove od.dentries oname;
  Hashtbl.replace nd.dentries nname { target = de.target; entry_addr = addr };
  if moved.kind = Types.Dir && odir <> ndir then begin
    od.links <- od.links - 1;
    nd.links <- nd.links + 1
  end;
  Ok ()
  end

let readdir t ~dir =
  let* d = live t dir in
  Ok
    (Hashtbl.fold
       (fun name de acc -> { Types.d_ino = de.target; d_name = name } :: acc)
       d.dentries [])

let read t ~ino ~off ~len =
  let* f = live t ino in
  if t.fortis && f.csum_tracked then begin
    let actual = Pmem.Checksum.crc32 (content t f) in
    if actual <> f.content_csum then begin
      Cov.mark "nova.read.csum_fail";
      f.error <- Some Errno.EIO;
      Error Errno.EIO
    end
    else Ok (read_range t f ~off ~len)
  end
  else Ok (read_range t f ~off ~len)

(* Copy-on-write a page range; returns (entries, new page mappings). Data
   pages are persisted (written + fenced) before any entry is appended. *)
let cow_write t f ~off ~data =
  let psz = page_size t in
  let len = String.length data in
  let first = off / psz and last = (off + len - 1) / psz in
  let rec alloc_pages acc idx =
    if idx > last then Ok (List.rev acc)
    else
      let* pg = Blockalloc.alloc t.alloc in
      alloc_pages ((idx, pg) :: acc) (idx + 1)
  in
  let* pages = alloc_pages [] first in
  List.iter
    (fun (idx, pg) ->
      let page_start = idx * psz in
      let old = read_page t f idx in
      let b = Bytes.of_string old in
      let s = max off page_start and e = min (off + len) (page_start + psz) in
      Bytes.blit_string data (s - off) b (s - page_start) (e - s);
      Pm.memcpy_nt t.pm ~off:(L.page_off t.lay pg) (Bytes.to_string b))
    pages;
  Pm.fence t.pm;
  Ok pages

let rec take n l =
  if n = 0 then ([], l)
  else match l with
    | [] -> ([], [])
    | x :: r ->
      let a, b = take (n - 1) r in
      (x :: a, b)

let write t ~ino ~off ~data =
  Cov.mark "nova.write";
  let* f = live t ino in
  let len = String.length data in
  if len = 0 then Ok 0
  else begin
    let new_size = max f.size (off + len) in
    let* pages = cow_write t f ~off ~data in
    (* Entries: one per run of <= 8 pages. *)
    let psz = page_size t in
    let rec emit = function
      | [] -> Ok ()
      | chunk ->
        let c, rest = take 8 chunk in
        let idx0 = fst (List.hd c) in
        let entry =
          Entry.File_write
            {
              file_off = idx0 * psz;
              new_size;
              len = List.length c * psz;
              pages = List.map snd c;
            }
        in
        let* _ = append_raw t f entry in
        if rest = [] then Ok () else emit rest
    in
    let* () = with_tail_rollback [ f ] (fun () -> emit pages) in
    publish_tail t f;
    (* DRAM: remap and free replaced pages. *)
    List.iter
      (fun (idx, pg) ->
        (match Hashtbl.find_opt f.extents idx with
        | Some old -> Blockalloc.free t.alloc old
        | None -> ());
        Hashtbl.replace f.extents idx pg)
      pages;
    f.size <- new_size;
    if t.fortis then f.csum_tracked <- false;
    Ok len
  end

let content_after t f size old_size =
  if size <= old_size then read_range t f ~off:0 ~len:size
  else content t f ^ String.make (size - old_size) '\000'

let truncate t ~ino ~size =
  Cov.mark "nova.truncate";
  let* f = live t ino in
  if size = f.size then Ok ()
  else begin
    let psz = page_size t in
    let old_size = f.size in
    let data_csum =
      if not t.fortis then 0
      else if t.bugs.Bugs.bug12_csum_after_commit then
        (* Bug 12 (logic): the checksum is computed over the pre-truncate
           content, racing with the size update. *)
        Pmem.Checksum.crc32 (content t f)
      else begin
        let truncated =
          if size <= old_size then read_range t f ~off:0 ~len:size
          else content t f ^ String.make (size - old_size) '\000'
        in
        Pmem.Checksum.crc32 truncated
      end
    in
    (* Shrinking into the middle of a page rewrites that page copy-on-write
       so stale bytes cannot resurface after a later extension. *)
    let* cow_pages = with_tail_rollback [ f ] @@ fun () ->
    let* cow_pages =
      if size < old_size && size mod psz <> 0 && Hashtbl.mem f.extents (size / psz) then begin
        let idx = size / psz in
        let keep = size - (idx * psz) in
        let page = read_page t f idx in
        let fresh = String.sub page 0 keep ^ String.make (psz - keep) '\000' in
        let* pg = Blockalloc.alloc t.alloc in
        Pm.memcpy_nt t.pm ~off:(L.page_off t.lay pg) fresh;
        Pm.fence t.pm;
        let entry =
          Entry.File_write { file_off = idx * psz; new_size = old_size; len = psz; pages = [ pg ] }
        in
        let* _ = append_raw t f entry in
        Ok [ (idx, pg) ]
      end
      else Ok []
    in
    if t.bugs.Bugs.bug7_eager_truncate_zero && size < old_size then begin
      (* Bug 7 (logic): pages beyond the new size are zeroed in place before
         the setattr entry commits. *)
      Cov.mark "nova.truncate.eager_zero";
      let from_idx = (size + psz - 1) / psz in
      Hashtbl.iter
        (fun idx pg ->
          if idx >= from_idx then
            Pm.memset_nt t.pm ~off:(L.page_off t.lay pg) ~len:psz '\000')
        f.extents;
      Pm.fence t.pm
    end;
    let* _ = append_raw t f (Entry.Setattr { new_size = size; data_csum }) in
    Ok cow_pages
    in
    publish_tail t f;
    (* DRAM state. *)
    List.iter
      (fun (idx, pg) ->
        (match Hashtbl.find_opt f.extents idx with
        | Some old -> Blockalloc.free t.alloc old
        | None -> ());
        Hashtbl.replace f.extents idx pg)
      cow_pages;
    if size < old_size then begin
      let from_idx = (size + psz - 1) / psz in
      free_extent_pages t f ~from_idx
    end;
    f.size <- size;
    if t.fortis then begin
      f.csum_tracked <- true;
      f.content_csum <-
        (if t.bugs.Bugs.bug12_csum_after_commit then
           (* DRAM keeps the correct checksum; only the persisted entry is
              stale, so the bug surfaces after recovery. *)
           Pmem.Checksum.crc32 (content_after t f size old_size)
         else data_csum)
    end;
    Ok ()
  end

let fallocate t ~ino ~off ~len ~keep_size =
  Cov.mark "nova.fallocate";
  let* f = live t ino in
  let psz = page_size t in
  let first = off / psz and last = (off + len - 1) / psz in
  let new_size = if keep_size then f.size else max f.size (off + len) in
  (* Allocate pages for unmapped indexes, grouped into consecutive runs. *)
  let rec runs acc current idx =
    if idx > last then
      List.rev (match current with [] -> acc | c -> List.rev c :: acc)
    else if Hashtbl.mem f.extents idx then
      runs (match current with [] -> acc | c -> List.rev c :: acc) [] (idx + 1)
    else runs acc (idx :: current) (idx + 1)
  in
  let needed = runs [] [] first in
  let rec alloc_runs acc = function
    | [] -> Ok (List.rev acc)
    | run :: rest ->
      let rec alloc_run out = function
        | [] -> Ok (List.rev out)
        | idx :: more ->
          let* pg = Blockalloc.alloc t.alloc in
          alloc_run ((idx, pg) :: out) more
      in
      let* pairs = alloc_run [] run in
      alloc_runs (pairs :: acc) rest
  in
  let* run_pages = alloc_runs [] needed in
  let zero_pages () =
    List.iter
      (fun pairs ->
        List.iter
          (fun (_, pg) -> Pm.memset_nt t.pm ~off:(L.page_off t.lay pg) ~len:psz '\000')
          pairs)
      run_pages;
    Pm.fence t.pm
  in
  let append_entries () =
    let rec emit = function
      | [] -> Ok ()
      | [] :: rest -> emit rest
      | pairs :: rest ->
        let c, more = take 8 pairs in
        let idx0 = fst (List.hd c) in
        let entry =
          Entry.File_write
            { file_off = idx0 * psz; new_size; len = List.length c * psz; pages = List.map snd c }
        in
        let* _ = append_raw t f entry in
        emit (more :: rest)
    in
    emit run_pages
  in
  let grew = new_size <> f.size in
  (* Growth beyond the last mapped page must be recorded explicitly: extent
     entries alone cannot represent it (e.g. extending into an
     already-mapped page, or into a hole). *)
  let data_csum =
    if t.fortis && grew then
      Pmem.Checksum.crc32 (content t f ^ String.make (new_size - f.size) '\000')
    else 0
  in
  let append_all () =
    let* () = append_entries () in
    if grew then
      let* _ = append_raw t f (Entry.Setattr { new_size; data_csum }) in
      Ok ()
    else Ok ()
  in
  let* () =
    if t.bugs.Bugs.bug8_fallocate_publish_first then begin
      (* Bug 8 (logic): the extent entries are committed before the pages
         they name are zeroed. *)
      Cov.mark "nova.fallocate.publish_first";
      let* () = with_tail_rollback [ f ] append_all in
      publish_tail t f;
      zero_pages ();
      Ok ()
    end
    else begin
      zero_pages ();
      let* () = with_tail_rollback [ f ] append_all in
      if run_pages <> [] || grew then publish_tail t f;
      Ok ()
    end
  in
  List.iter
    (fun pairs -> List.iter (fun (idx, pg) -> Hashtbl.replace f.extents idx pg) pairs)
    run_pages;
  f.size <- new_size;
  if t.fortis then
    if grew then begin
      f.csum_tracked <- true;
      f.content_csum <- data_csum
    end
    else f.csum_tracked <- false;
  Ok ()

(* Extended attributes are not supported (paper section 4.1: only the DAX
   family implements them among the tested systems). *)
let setxattr _t ~ino:_ ~name:_ ~value:_ = Error Errno.ENOTSUP
let getxattr _t ~ino:_ ~name:_ = Error Errno.ENOTSUP
let listxattr _t ~ino:_ = Error Errno.ENOTSUP
let removexattr _t ~ino:_ ~name:_ = Error Errno.ENOTSUP

let fsync _t ~ino:_ = Ok ()
let sync _t = ()

let iget t ~ino = match get t ino with Error _ -> () | Ok i -> i.opens <- i.opens + 1

let iput t ~ino =
  match get t ino with
  | Error _ -> ()
  | Ok i ->
    i.opens <- max 0 (i.opens - 1);
    if i.links = 0 && i.opens = 0 then reclaim_inode t i

(* ------------------------------------------------------------------ *)
(* mkfs                                                                *)

let mkfs pm cfg =
  let lay = L.v cfg in
  if Pm.size pm < lay.L.size then
    Pmem.Fault.fail "nova mkfs: device too small (%d < %d)" (Pm.size pm) lay.L.size;
  let t =
    {
      pm;
      lay;
      bugs = cfg.L.bugs;
      fortis = cfg.L.fortis;
      inodes = Hashtbl.create 32;
      alloc = Blockalloc.create ~n_pages:cfg.L.n_pages;
      unordered_extension = false;
    }
  in
  for p = 0 to lay.L.first_free_page - 1 do
    Blockalloc.mark_used t.alloc p
  done;
  (* Superblock. *)
  let sb = Bytes.make L.sb_len '\000' in
  Bytes.set_int32_le sb L.sb_magic (Int32.of_int L.magic);
  Bytes.set_int32_le sb L.sb_version (Int32.of_int L.version);
  Bytes.set_int32_le sb L.sb_page_size (Int32.of_int cfg.L.page_size);
  Bytes.set_int32_le sb L.sb_n_pages (Int32.of_int cfg.L.n_pages);
  Bytes.set_int32_le sb L.sb_n_inodes (Int32.of_int cfg.L.n_inodes);
  Bytes.set sb L.sb_fortis (if cfg.L.fortis then '\001' else '\000');
  Pm.memcpy_nt t.pm ~off:0 (Bytes.to_string sb);
  (* Zero inode table(s) and journal. *)
  let it_bytes = L.it_pages cfg * cfg.L.page_size in
  Pm.memset_nt t.pm ~off:lay.L.inode_table ~len:it_bytes '\000';
  if cfg.L.fortis then Pm.memset_nt t.pm ~off:lay.L.replica_table ~len:it_bytes '\000';
  Pm.memset_nt t.pm ~off:lay.L.journal ~len:cfg.L.page_size '\000';
  (* Root inode. *)
  let root_pg =
    match Blockalloc.alloc t.alloc with
    | Ok pg -> pg
    | Error _ -> Pmem.Fault.fail "nova mkfs: no pages"
  in
  (* Root log page must be persisted even when bug 2 is armed: mkfs is not a
     crash-tested path, so write it directly. *)
  Pm.memset_nt t.pm ~off:(L.page_off lay root_pg) ~len:cfg.L.page_size '\000';
  let header = Bytes.make L.lp_header '\000' in
  Bytes.set_int32_le header 0 (Int32.of_int L.log_page_magic);
  Pm.memcpy_nt t.pm ~off:(L.page_off lay root_pg) (Bytes.to_string header);
  let tail = L.page_off lay root_pg + L.lp_header in
  write_slot t ~off:(L.inode_off lay root_ino) ~valid:true ~kind:Types.Dir ~links:2 ~head:root_pg
    ~tail;
  if cfg.L.fortis then
    write_slot t ~off:(L.replica_off lay root_ino) ~valid:true ~kind:Types.Dir ~links:2
      ~head:root_pg ~tail;
  Pm.fence t.pm;
  let root = fresh_inode ~ino:root_ino ~kind:Types.Dir ~links:2 ~head:root_pg ~tail in
  root.tail_page <- root_pg;
  Hashtbl.replace t.inodes root_ino root;
  t

(* ------------------------------------------------------------------ *)
(* Mount: journal recovery + log scan + DRAM rebuild                   *)

type scanned = {
  s_inode : inode;
  mutable s_trimmed : (int * int) list;
      (** (file page idx, device page) trimmed by a trailing Setattr —
          consulted by the bug-11 double-replay pass. *)
  mutable s_last_was_shrink : bool;
}

let read_slot pm lay ~off =
  let valid = Pmem.Image.read_u8 (Pm.image pm) ~off:(off + L.i_valid) in
  let kind = Pmem.Image.read_u8 (Pm.image pm) ~off:(off + L.i_kind) in
  let links = Pmem.Image.read_u16 (Pm.image pm) ~off:(off + L.i_links) in
  let head = Pmem.Image.read_u32 (Pm.image pm) ~off:(off + L.i_log_head) in
  let tail = Pmem.Image.read_u64 (Pm.image pm) ~off:(off + L.i_tail) in
  let csum = Pmem.Image.read_u32 (Pm.image pm) ~off:(off + L.i_csum) in
  ignore lay;
  (valid, kind, links, head, tail, csum)

let slot_csum_ok pm ~off csum =
  let prefix = Pm.read pm ~off ~len:8 in
  slot_csum prefix = csum

(* Walk one inode's log and rebuild its DRAM state. Returns [Error msg] for
   structural corruption that must reject the mount; degradable damage
   (fortis checksum failures, unreachable log head) marks the inode instead.
   A chain of distinct pages has fewer than [n_pages] hops, so more means an
   on-media [lp_next] cycle the tail is never reached from. *)
let scan_log t node tail =
  let psz = page_size t in
  let head_off = L.page_off t.lay node.head in
  if node.head = 0 || node.head >= t.lay.L.cfg.L.n_pages then begin
    node.error <- Some Errno.EIO;
    Ok []
  end
  else if Pm.read_u32 t.pm ~off:(head_off + L.lp_magic) <> L.log_page_magic then begin
    Cov.mark "nova.mount.bad_log_head";
    node.error <- Some Errno.EIO;
    Ok []
  end
  else begin
    let entries = ref [] in
    let n_pages = t.lay.L.cfg.L.n_pages in
    let rec walk ~hops page addr =
      if addr = tail then Ok (L.page_off t.lay page, addr)
      else begin
        let page_start = L.page_off t.lay page in
        let body = Pm.read t.pm ~off:page_start ~len:psz in
        let pos = addr - page_start in
        let jump () =
          let next = Pm.read_u32 t.pm ~off:(page_start + L.lp_next) in
          if hops >= n_pages then
            Error (Printf.sprintf "nova: inode %d log chain cycles" node.ino)
          else if next = 0 || next >= n_pages then
            Error
              (Printf.sprintf "nova: inode %d log ends before tail (tail=%d addr=%d)" node.ino
                 tail addr)
          else if Pm.read_u32 t.pm ~off:(L.page_off t.lay next + L.lp_magic) <> L.log_page_magic
          then Error (Printf.sprintf "nova: inode %d log chain hits uninitialised page" node.ino)
          else walk ~hops:(hops + 1) next (L.page_off t.lay next + L.lp_header)
        in
        if pos + 2 > psz then jump ()
        else if body.[pos] = '\000' then jump ()
        else
          match Entry.decode ~fortis:t.fortis body pos with
          | Error Entry.Bad_csum ->
            Cov.mark "nova.mount.entry_csum_fail";
            (* Fortis: treat the rest of this log as lost. *)
            entries := (`Corrupt, addr) :: !entries;
            Ok (page_start, addr)
          | Error _ ->
            Error (Printf.sprintf "nova: inode %d has a corrupt log entry at %d" node.ino addr)
          | Ok (e, elen) ->
            entries := (`Entry e, addr) :: !entries;
            walk ~hops page (addr + elen)
      end
    in
    match walk ~hops:0 node.head (head_off + L.lp_header) with
    | Error _ as e -> e
    | Ok (tail_page_start, effective_tail) ->
      node.tail <- effective_tail;
      node.tail_page <- L.page_of_addr t.lay tail_page_start;
      Ok (List.rev !entries)
  end

let apply_entries t node entries scanned =
  let psz = page_size t in
  List.iter
    (fun (item, addr) ->
      match item with
      | `Corrupt ->
        (* A checksum-corrupt entry truncates the log view; a directory that
           loses entries this way is unsafe to use. *)
        if node.kind = Types.Dir then node.error <- Some Errno.EIO
      | `Entry (Entry.Dentry_add { ino; name; valid }) ->
        if valid then Hashtbl.replace node.dentries name { target = ino; entry_addr = addr }
        else Hashtbl.remove node.dentries name;
        scanned.s_last_was_shrink <- false
      | `Entry (Entry.Dentry_del { name; _ }) ->
        Hashtbl.remove node.dentries name;
        scanned.s_last_was_shrink <- false
      | `Entry (Entry.File_write { file_off; new_size; len; pages }) ->
        List.iteri
          (fun i pg -> Hashtbl.replace node.extents ((file_off / psz) + i) pg)
          pages;
        ignore len;
        node.size <- new_size;
        node.csum_tracked <- false;
        scanned.s_last_was_shrink <- false
      | `Entry (Entry.Setattr { new_size; data_csum }) ->
        let shrink = new_size < node.size in
        if shrink then begin
          let from_idx = (new_size + psz - 1) / psz in
          let doomed =
            Hashtbl.fold
              (fun idx pg acc -> if idx >= from_idx then (idx, pg) :: acc else acc)
              node.extents []
          in
          List.iter (fun (idx, _) -> Hashtbl.remove node.extents idx) doomed;
          scanned.s_trimmed <- doomed;
          scanned.s_last_was_shrink <- true
        end
        else scanned.s_last_was_shrink <- false;
        node.size <- new_size;
        if t.fortis then begin
          node.csum_tracked <- true;
          node.content_csum <- data_csum
        end)
    entries


exception Mount_error of string

let mount pm cfg =
  let lay = L.v cfg in
  let failm fmt = Printf.ksprintf (fun s -> raise (Mount_error s)) fmt in
  let go () =
    if Pm.size pm < lay.L.size then failm "nova: device smaller than layout";
    if Pm.read_u32 pm ~off:L.sb_magic <> L.magic then failm "nova: bad superblock magic";
    if Pm.read_u32 pm ~off:L.sb_version <> L.version then failm "nova: bad version";
    if Pm.read_u32 pm ~off:L.sb_page_size <> cfg.L.page_size then failm "nova: page size mismatch";
    if Pm.read_u32 pm ~off:L.sb_n_pages <> cfg.L.n_pages then failm "nova: page count mismatch";
    if Pm.read_u8 pm ~off:L.sb_fortis = 1 <> cfg.L.fortis then failm "nova: fortis flag mismatch";
    let t =
      {
        pm;
        lay;
        bugs = cfg.L.bugs;
        fortis = cfg.L.fortis;
        inodes = Hashtbl.create 32;
        alloc = Blockalloc.create ~n_pages:cfg.L.n_pages;
        unordered_extension = false;
      }
    in
    for p = 0 to lay.L.first_free_page - 1 do
      Blockalloc.mark_used t.alloc p
    done;
    (match Journal.recover pm lay with
    | Error e -> failm "%s" e
    | Ok _replayed -> ());
    (* Pass 1: load inode slots, scan logs, rebuild DRAM state. *)
    let scanned : (int, scanned) Hashtbl.t = Hashtbl.create 32 in
    for ino = 0 to cfg.L.n_inodes - 1 do
      let off = L.inode_off lay ino in
      let valid, kindb, links, head, tail, csum = read_slot pm lay ~off in
      if valid <> 0 then begin
        let kind = if kindb = 2 then Types.Dir else Types.Reg in
        let degraded_by_replica =
          if not t.fortis then false
          else begin
            let r_off = L.replica_off lay ino in
            let r_valid, _, r_links, _, _, r_csum = read_slot pm lay ~off:r_off in
            let p_ok = slot_csum_ok pm ~off csum in
            let r_ok = r_valid = 1 && slot_csum_ok pm ~off:r_off r_csum in
            if p_ok && r_ok && links <> r_links then begin
              Cov.mark "nova.mount.replica_mismatch";
              true
            end
            else if (not p_ok) && r_ok then begin
              (* Restore the primary from the replica. *)
              let fixed = Pm.read pm ~off:r_off ~len:8 in
              Pm.memcpy_nt pm ~off fixed;
              Pm.memcpy_nt pm ~off:(off + L.i_csum) (le32 r_csum);
              Pm.fence pm;
              false
            end
            else if p_ok && not r_ok then begin
              let fixed = Pm.read pm ~off ~len:8 in
              Pm.memcpy_nt pm ~off:r_off fixed;
              Pm.memcpy_nt pm ~off:(r_off + L.i_csum) (le32 csum);
              Pm.fence pm;
              false
            end
            else not p_ok (* both sides broken: degrade the inode *)
          end
        in
        let node = fresh_inode ~ino ~kind ~links ~head ~tail in
        node.tail_page <- L.page_of_addr lay tail;
        Hashtbl.replace t.inodes ino node;
        let sc = { s_inode = node; s_trimmed = []; s_last_was_shrink = false } in
        Hashtbl.replace scanned ino sc;
        if degraded_by_replica then node.error <- Some Errno.EIO
        else
          match scan_log t node tail with
          | Error e -> failm "%s" e
          | Ok entries -> apply_entries t node entries sc
      end
    done;
    if not (Hashtbl.mem t.inodes root_ino) then failm "nova: no root inode";
    (* Pass 2: cross-checks. A dentry naming a free inode slot is fatal
       structural corruption (how bug 1 surfaces after a crash). *)
    let referenced : (int, unit) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _ node ->
        if node.kind = Types.Dir && node.error = None then
          Hashtbl.iter
            (fun dname de ->
              if not (Hashtbl.mem t.inodes de.target) then begin
                Cov.mark "nova.mount.dangling_dentry";
                failm "nova: dentry %S references free inode %d" dname de.target
              end;
              Hashtbl.replace referenced de.target ())
            node.dentries)
      t.inodes;
    (* Pass 3: occupancy rebuild. A double reference raises a device fault,
       which surfaces as a failed mount. *)
    Hashtbl.iter
      (fun _ node ->
        if node.error = None then begin
          let rec claim_chain pg =
            if pg <> 0 && pg < cfg.L.n_pages then begin
              Blockalloc.mark_used t.alloc pg;
              if pg <> node.tail_page then
                claim_chain (Pm.read_u32 pm ~off:(L.page_off lay pg + L.lp_next))
            end
          in
          claim_chain node.head;
          Hashtbl.iter (fun _ pg -> Blockalloc.mark_used t.alloc pg) node.extents
        end)
      t.inodes;
    (* Bug 11 (fortis): an extra "truncate replay" pass frees pages the log
       scan already returned to the allocator. *)
    if t.fortis && t.bugs.Bugs.bug11_replay_truncate_twice then
      Hashtbl.iter
        (fun _ sc ->
          if sc.s_last_was_shrink then begin
            Cov.mark "nova.mount.truncate_replay";
            List.iter (fun (_, pg) -> Blockalloc.free t.alloc pg) sc.s_trimmed
          end)
        scanned;
    (* Pass 4: reclaim orphans — valid inodes no dentry references (a crash
       between inode persist and dentry commit, or an unlinked-open file). *)
    let orphans =
      Hashtbl.fold
        (fun ino node acc ->
          if ino <> root_ino && node.error = None && not (Hashtbl.mem referenced ino) then
            node :: acc
          else acc)
        t.inodes []
    in
    List.iter
      (fun node ->
        Cov.mark "nova.mount.orphan";
        reclaim_inode t node)
      orphans;
    t
  in
  match go () with
  | t -> Ok t
  | exception Mount_error e -> Error e
