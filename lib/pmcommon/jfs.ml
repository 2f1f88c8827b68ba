(** The shared core of the PMFS/WineFS family: a classic inode-table file
    system with direct + indirect block pointers, in-place metadata updates
    protected by an undo {!Undo_journal}, in-place data writes, a persistent
    truncate (orphan) list, and a volatile block allocator rebuilt at mount.

    WineFS instantiates the same core with per-CPU journals, an
    alignment-aware allocator and a strict (copy-on-write, atomic-data)
    write mode — faithful to its real heritage as a PMFS derivative.

    The [bugs] switches re-introduce paper bugs 13-20; everything defaults
    to the fixed behaviour. *)

module Types = Vfs.Types
module Errno = Vfs.Errno
module Pm = Persist.Pm

let ( let* ) = Result.bind

type bugs = {
  bug13_replay_without_freelist : bool;
      (** Recovery replays the truncate list before the volatile free list
          exists (null dereference; paper bug 13). *)
  bug14_skip_data_fence : bool;
      (** The pure-overwrite fast path returns without a fence (writes not
          synchronous; paper bugs 14/15). *)
  bug16_unvalidated_journal : bool;
      (** Journal commit publishes the valid flag with the records, and
          recovery skips validation (OOB access; paper bug 16). *)
  bug17_skip_tail_flush : bool;
      (** The data path never flushes cached unaligned tails (data loss;
          paper bugs 17/18). *)
  bug19_recover_first_journal_only : bool;
      (** Recovery mis-indexes the per-CPU journal array and only rolls back
          journal 0 (paper bug 19). *)
  bug20_strict_inplace_tail : bool;
      (** Strict mode copies-on-write only the first touched block of a
          multi-block write (torn atomic write; paper bug 20). *)
}

let no_bugs =
  {
    bug13_replay_without_freelist = false;
    bug14_skip_data_fence = false;
    bug16_unvalidated_journal = false;
    bug17_skip_tail_flush = false;
    bug19_recover_first_journal_only = false;
    bug20_strict_inplace_tail = false;
  }

type config = {
  fs_name : string;
  page_size : int;
  n_pages : int;
  n_inodes : int;
  n_journals : int;
  journal_pages : int;
  strict_data : bool;
  aligned_alloc : bool;
  align : int;  (** allocation alignment for data, in pages *)
  bugs : bugs;
}

let base_config =
  {
    fs_name = "pmjfs";
    page_size = 128;
    n_pages = 1024;
    n_inodes = 32;
    n_journals = 1;
    journal_pages = 2;
    strict_data = false;
    aligned_alloc = false;
    align = 1;
    bugs = no_bugs;
  }

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let magic = 0x504D4A46 (* "PMJF" *)
let version = 1
let inode_slot_size = 64
let dentry_size = 32
let n_direct = 8
let name_max = 26

(* Superblock offsets *)
let sb_magic = 0
let sb_version = 4
let sb_page_size = 8
let sb_n_pages = 12
let sb_n_inodes = 16
let sb_n_journals = 20
let sb_strict = 21
let sb_trunc_head = 24 (* u32: ino + 1, 0 = empty list *)

(* Inode slot offsets *)
let i_valid = 0
let i_kind = 1
let i_links = 2 (* u16 *)
let i_trunc_target = 4 (* u32 *)
let i_size = 8 (* u64 *)
let i_direct = 16 (* u32 x 8 *)
let i_indirect = 48 (* u32 *)
let i_trunc_next = 52 (* u32: ino + 1 *)
let i_trunc_kind = 56 (* u8: 0 none, 1 truncate, 2 free *)

(* Dentry offsets *)
let d_ino = 0
let d_valid = 4
let d_name_len = 5
let d_name = 6

type lay = {
  cfg : config;
  inode_table : int;
  journal_base : int;
  first_free_page : int;
  size : int;
  ind_per_page : int;  (** indirect pointers per page *)
}

let layout cfg =
  let it_pages = (cfg.n_inodes * inode_slot_size + cfg.page_size - 1) / cfg.page_size in
  let journal_page0 = 1 + it_pages in
  {
    cfg;
    inode_table = cfg.page_size;
    journal_base = journal_page0 * cfg.page_size;
    first_free_page = journal_page0 + (cfg.n_journals * cfg.journal_pages);
    size = cfg.n_pages * cfg.page_size;
    ind_per_page = cfg.page_size / 4;
  }

let inode_off lay ino = lay.inode_table + (ino * inode_slot_size)
let page_off lay page = page * lay.cfg.page_size

let journal lay cpu =
  {
    Undo_journal.base = lay.journal_base + (cpu * lay.cfg.journal_pages * lay.cfg.page_size);
    space = lay.cfg.journal_pages * lay.cfg.page_size;
  }

let max_blocks lay = n_direct + lay.ind_per_page
let max_size lay = max_blocks lay * lay.cfg.page_size

(* ------------------------------------------------------------------ *)
(* DRAM state                                                          *)

type dentry = { target : int; addr : int  (** device address of the 32-byte slot *) }

type inode = {
  ino : int;
  kind : Types.file_kind;
  mutable links : int;
  mutable size : int;
  direct : int array;  (** page numbers, 0 = unmapped *)
  mutable indirect : int;  (** indirect page, 0 = none *)
  ind : int array;  (** loaded indirect pointers *)
  dentries : (string, dentry) Hashtbl.t;
  mutable opens : int;
  mutable error : Errno.t option;
}

type t = {
  pm : Pm.t;
  lay : lay;
  bugs : bugs;
  inodes : (int, inode) Hashtbl.t;
  alloc : Blockalloc.t;
}

let root_ino = 0
let name = "pmjfs"

let fresh_inode lay ~ino ~kind ~links =
  {
    ino;
    kind;
    links;
    size = 0;
    direct = Array.make n_direct 0;
    indirect = 0;
    ind = Array.make lay.ind_per_page 0;
    dentries = Hashtbl.create 8;
    opens = 0;
    error = None;
  }

let get t ino =
  match Hashtbl.find_opt t.inodes ino with None -> Error Errno.ENOENT | Some i -> Ok i

let live t ino =
  let* i = get t ino in
  match i.error with Some e -> Error e | None -> Ok i

let alloc_ino t =
  let rec scan i =
    if i >= t.lay.cfg.n_inodes then Error Errno.ENOSPC
    else if Hashtbl.mem t.inodes i then scan (i + 1)
    else Ok i
  in
  scan 0

let alloc_page t =
  if t.lay.cfg.aligned_alloc then Blockalloc.alloc_aligned t.alloc ~align:t.lay.cfg.align
  else Blockalloc.alloc t.alloc

let cpu_of t ino = ino mod t.lay.cfg.n_journals

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let with_tx t ~cpu ~spans f =
  Undo_journal.begin_tx ~bug16_count_before_records:t.bugs.bug16_unvalidated_journal t.pm
    (journal t.lay cpu) ~spans;
  f ();
  Undo_journal.end_tx t.pm (journal t.lay cpu)

(* Span helpers *)
let span_inode t ino = (inode_off t.lay ino, inode_slot_size)
let span_links t ino = (inode_off t.lay ino + i_links, 2)
let span_size t ino = (inode_off t.lay ino + i_size, 8)
let span_dentry addr = (addr, dentry_size)
let span_dentry_valid addr = (addr + d_valid, 1)
let span_trunc_head _t = (sb_trunc_head, 4)

(* In-place write helpers (used inside transactions; the journal's end_tx
   fence publishes them). *)
let put_u8 t ~off v = Pm.memcpy_nt t.pm ~off (String.make 1 (Char.chr (v land 0xFF)))

let put_u16 t ~off v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  Pm.memcpy_nt t.pm ~off (Bytes.to_string b)

let put_u32 t ~off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Pm.memcpy_nt t.pm ~off (Bytes.to_string b)

let put_u64 t ~off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Pm.memcpy_nt t.pm ~off (Bytes.to_string b)

let write_links t inode links =
  inode.links <- links;
  put_u16 t ~off:(inode_off t.lay inode.ino + i_links) links

let write_size t inode size =
  inode.size <- size;
  put_u64 t ~off:(inode_off t.lay inode.ino + i_size) size

(* ------------------------------------------------------------------ *)
(* Block mapping                                                       *)

let block_of inode idx = if idx < n_direct then inode.direct.(idx) else inode.ind.(idx - n_direct)

let block_ptr_addr t inode idx =
  if idx < n_direct then inode_off t.lay inode.ino + i_direct + (4 * idx)
  else page_off t.lay inode.indirect + (4 * (idx - n_direct))

let set_block t inode idx page =
  (* In-place pointer update; the caller's transaction covers the span. *)
  if idx < n_direct then inode.direct.(idx) <- page else inode.ind.(idx - n_direct) <- page;
  put_u32 t ~off:(block_ptr_addr t inode idx) page

let read_block t inode idx =
  match block_of inode idx with
  | 0 -> String.make t.lay.cfg.page_size '\000'
  | pg -> Pm.read t.pm ~off:(page_off t.lay pg) ~len:t.lay.cfg.page_size

let read_range t inode ~off ~len =
  let psz = t.lay.cfg.page_size in
  let buf = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let abs = off + pos in
      let idx = abs / psz and in_page = abs mod psz in
      let n = min (psz - in_page) (len - pos) in
      let block = read_block t inode idx in
      Bytes.blit_string block in_page buf pos n;
      go (pos + n)
    end
  in
  go 0;
  Bytes.to_string buf

(* ------------------------------------------------------------------ *)
(* Dentry slots                                                        *)

let dentry_slots_per_page lay = lay.cfg.page_size / dentry_size

(* Find a free dentry slot in the directory, or allocate a fresh page for
   one. Returns the slot address plus, when a page was allocated, the block
   index and page so the caller's transaction can publish the pointer. *)
(* Directories use only direct blocks for dentry pages, keeping
   transactions small (8 pages x 4 slots = 32 entries per directory). *)
let find_dentry_slot t dir =
  let psz = t.lay.cfg.page_size in
  let per = dentry_slots_per_page t.lay in
  let rec go idx =
    if idx >= n_direct then Error Errno.ENOSPC
    else
      match block_of dir idx with
      | 0 -> (
        (* Allocate and zero a fresh dentry page; it stays unreferenced
           until the caller's transaction publishes the pointer. *)
        match alloc_page t with
        | Error e -> Error e
        | Ok pg ->
          Pm.memset_nt t.pm ~off:(page_off t.lay pg) ~len:psz '\000';
          Pm.fence t.pm;
          Ok (page_off t.lay pg, Some (idx, pg)))
      | pg ->
        let rec slot i =
          if i >= per then go (idx + 1)
          else
            let addr = page_off t.lay pg + (i * dentry_size) in
            if Pm.read_u8 t.pm ~off:(addr + d_valid) = 0 then Ok (addr, None) else slot (i + 1)
        in
        slot 0
  in
  go 0

let write_dentry t ~addr ~ino ~dname =
  let b = Bytes.make dentry_size '\000' in
  Bytes.set_int32_le b d_ino (Int32.of_int ino);
  Bytes.set b d_valid '\001';
  Bytes.set b d_name_len (Char.chr (String.length dname));
  Bytes.blit_string dname 0 b d_name (String.length dname);
  Pm.memcpy_nt t.pm ~off:addr (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Inode slot persistence                                              *)

let write_inode_slot t inode ~valid =
  let off = inode_off t.lay inode.ino in
  let b = Bytes.make inode_slot_size '\000' in
  Bytes.set b i_valid (if valid then '\001' else '\000');
  Bytes.set b i_kind (match inode.kind with Types.Reg -> '\001' | Types.Dir -> '\002');
  Bytes.set_uint16_le b i_links inode.links;
  Bytes.set_int64_le b i_size (Int64.of_int inode.size);
  Array.iteri (fun i pg -> Bytes.set_int32_le b (i_direct + (4 * i)) (Int32.of_int pg)) inode.direct;
  Bytes.set_int32_le b i_indirect (Int32.of_int inode.indirect);
  Pm.memcpy_nt t.pm ~off (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Truncate (orphan) list                                              *)

let trunc_head t = Pm.read_u32 t.pm ~off:sb_trunc_head

(* Insert [ino] at the head of the persistent truncate list. Runs as its own
   transaction; a crash after it commits lets recovery finish the job. *)
let trunc_list_insert t inode ~tkind ~target =
  let off = inode_off t.lay inode.ino in
  with_tx t ~cpu:(cpu_of t inode.ino)
    ~spans:[ span_trunc_head t; (off + i_trunc_target, 4); (off + i_trunc_next, 5) ]
    (fun () ->
      put_u32 t ~off:(off + i_trunc_target) target;
      put_u32 t ~off:(off + i_trunc_next) (trunc_head t);
      put_u8 t ~off:(off + i_trunc_kind) tkind;
      put_u32 t ~off:sb_trunc_head (inode.ino + 1))

(* The list is only ever popped from the head (items are pushed and
   completed within one syscall, so the head is the item being removed). *)
let trunc_list_remove_head t inode extra_spans f =
  let off = inode_off t.lay inode.ino in
  with_tx t ~cpu:(cpu_of t inode.ino)
    ~spans:([ span_trunc_head t; (off + i_trunc_next, 5) ] @ extra_spans)
    (fun () ->
      put_u32 t ~off:sb_trunc_head (Pm.read_u32 t.pm ~off:(off + i_trunc_next));
      put_u32 t ~off:(off + i_trunc_next) 0;
      put_u8 t ~off:(off + i_trunc_kind) 0;
      f ())

let free_blocks_dram t inode ~from_idx =
  for idx = from_idx to max_blocks t.lay - 1 do
    match block_of inode idx with
    | 0 -> ()
    | pg ->
      Blockalloc.free t.alloc pg;
      if idx < n_direct then inode.direct.(idx) <- 0 else inode.ind.(idx - n_direct) <- 0
  done;
  if from_idx = 0 && inode.indirect <> 0 then begin
    Blockalloc.free t.alloc inode.indirect;
    inode.indirect <- 0
  end

(* Free an inode whose last link is gone: push it on the truncate list, then
   clear the slot and pop the list in a second transaction. *)
let free_inode t inode =
  Cov.mark "jfs.free_inode";
  trunc_list_insert t inode ~tkind:2 ~target:0;
  trunc_list_remove_head t inode
    [ span_inode t inode.ino ]
    (fun () ->
      put_u8 t ~off:(inode_off t.lay inode.ino + i_valid) 0);
  free_blocks_dram t inode ~from_idx:0;
  Hashtbl.remove t.inodes inode.ino

let drop_link t inode =
  if inode.links = 0 && inode.opens = 0 then free_inode t inode

(* ------------------------------------------------------------------ *)
(* INODE_OPS: namespace                                                *)

let lookup t ~dir ~name:dname =
  let* d = live t dir in
  if d.kind <> Types.Dir then Error Errno.ENOTDIR
  else
    match Hashtbl.find_opt d.dentries dname with
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
        st_size =
          (match i.kind with Types.Reg -> i.size | Types.Dir -> Hashtbl.length i.dentries);
        st_nlink = i.links;
      }

let make_inode t ~dir ~name:dname ~kind =
  Cov.mark (if kind = Types.Reg then "jfs.create" else "jfs.mkdir");
  let* d = live t dir in
  let* ino = alloc_ino t in
  let* addr, new_page = find_dentry_slot t d in
  let links = match kind with Types.Reg -> 1 | Types.Dir -> 2 in
  let node = fresh_inode t.lay ~ino ~kind ~links in
  Hashtbl.replace t.inodes ino node;
  let spans =
    [ span_inode t ino; span_dentry addr ]
    @ (match new_page with Some (idx, _) -> [ (block_ptr_addr t d idx, 4) ] | None -> [])
    @ (if kind = Types.Dir then [ span_links t d.ino ] else [])
  in
  with_tx t ~cpu:(cpu_of t ino) ~spans (fun () ->
      write_inode_slot t node ~valid:true;
      write_dentry t ~addr ~ino ~dname;
      (match new_page with Some (idx, pg) -> set_block t d idx pg | None -> ());
      if kind = Types.Dir then write_links t d (d.links + 1));
  Hashtbl.replace d.dentries dname { target = ino; addr };
  Ok ino

let create t ~dir ~name = make_inode t ~dir ~name ~kind:Types.Reg
let mkdir t ~dir ~name = make_inode t ~dir ~name ~kind:Types.Dir

let link t ~ino ~dir ~name:dname =
  Cov.mark "jfs.link";
  let* f = live t ino in
  let* d = live t dir in
  if f.links >= 0xFFFF then Error Errno.EMLINK
  else
    let* addr, new_page = find_dentry_slot t d in
    let spans =
      [ span_dentry addr; span_links t ino ]
      @ match new_page with Some (idx, _) -> [ (block_ptr_addr t d idx, 4) ] | None -> []
    in
    with_tx t ~cpu:(cpu_of t ino) ~spans (fun () ->
        write_dentry t ~addr ~ino ~dname;
        (match new_page with Some (idx, pg) -> set_block t d idx pg | None -> ());
        write_links t f (f.links + 1));
    Hashtbl.replace d.dentries dname { target = ino; addr };
    Ok ()

let unlink t ~dir ~name:dname =
  Cov.mark "jfs.unlink";
  let* d = live t dir in
  let de = Hashtbl.find d.dentries dname in
  let* f = get t de.target in
  with_tx t ~cpu:(cpu_of t de.target)
    ~spans:[ span_dentry_valid de.addr; span_links t de.target ]
    (fun () ->
      put_u8 t ~off:(de.addr + d_valid) 0;
      write_links t f (f.links - 1));
  Hashtbl.remove d.dentries dname;
  drop_link t f;
  Ok ()

let rmdir t ~dir ~name:dname =
  Cov.mark "jfs.rmdir";
  let* d = live t dir in
  let de = Hashtbl.find d.dentries dname in
  let* victim = get t de.target in
  with_tx t ~cpu:(cpu_of t de.target)
    ~spans:[ span_dentry_valid de.addr; span_links t d.ino; span_links t de.target ]
    (fun () ->
      put_u8 t ~off:(de.addr + d_valid) 0;
      write_links t d (d.links - 1);
      write_links t victim 0);
  Hashtbl.remove d.dentries dname;
  free_inode t victim;
  Ok ()

let rename t ~odir ~oname ~ndir ~nname =
  Cov.mark "jfs.rename";
  if odir <> ndir then Cov.mark "jfs.rename.crossdir";
  let* od = live t odir in
  let* nd = live t ndir in
  let de = Hashtbl.find od.dentries oname in
  let* moved = get t de.target in
  let target = Hashtbl.find_opt nd.dentries nname in
  if target <> None then Cov.mark "jfs.rename.overwrite";
  (* Destination slot: reuse the overwritten target's slot when it exists. *)
  let* naddr, new_page =
    match target with
    | Some tde -> Ok (tde.addr, None)
    | None -> find_dentry_slot t nd
  in
  let victim =
    match target with
    | None -> None
    | Some tde -> ( match get t tde.target with Ok v -> Some v | Error _ -> None)
  in
  let spans =
    [ span_dentry_valid de.addr; span_dentry naddr ]
    @ (match new_page with Some (idx, _) -> [ (block_ptr_addr t nd idx, 4) ] | None -> [])
    @ (match victim with Some v -> [ span_links t v.ino ] | None -> [])
    @
    if moved.kind = Types.Dir && odir <> ndir then
      [ span_links t od.ino; span_links t nd.ino ]
    else []
  in
  with_tx t ~cpu:(cpu_of t de.target) ~spans (fun () ->
      put_u8 t ~off:(de.addr + d_valid) 0;
      write_dentry t ~addr:naddr ~ino:de.target ~dname:nname;
      (match new_page with Some (idx, pg) -> set_block t nd idx pg | None -> ());
      (match victim with
      | Some v -> write_links t v (if v.kind = Types.Dir then 0 else v.links - 1)
      | None -> ());
      if moved.kind = Types.Dir && odir <> ndir then begin
        write_links t od (od.links - 1);
        write_links t nd (nd.links + 1)
      end);
  Hashtbl.remove od.dentries oname;
  Hashtbl.replace nd.dentries nname { target = de.target; addr = naddr };
  (match victim with
  | Some v when v.kind = Types.Dir ->
    free_inode t v
  | Some v -> drop_link t v
  | None -> ());
  Ok ()

let readdir t ~dir =
  let* d = live t dir in
  Ok
    (Hashtbl.fold
       (fun dname de acc -> { Types.d_ino = de.target; d_name = dname } :: acc)
       d.dentries [])

(* ------------------------------------------------------------------ *)
(* INODE_OPS: data                                                     *)

let read t ~ino ~off ~len =
  let* f = live t ino in
  Ok (read_range t f ~off ~len)

(* Ensure every block in [first, last] is mapped; freshly mapped blocks are
   zeroed and their pointers returned for the caller's transaction. *)
let map_blocks t f ~first ~last =
  let psz = t.lay.cfg.page_size in
  let ensure_indirect () =
    if last >= n_direct && f.indirect = 0 then begin
      match alloc_page t with
      | Error e -> Error e
      | Ok pg ->
        Pm.memset_nt t.pm ~off:(page_off t.lay pg) ~len:psz '\000';
        Pm.fence t.pm;
        f.indirect <- pg;
        Ok (Some pg)
    end
    else Ok None
  in
  let* new_indirect = ensure_indirect () in
  let rec go acc idx =
    if idx > last then Ok (List.rev acc)
    else
      match block_of f idx with
      | 0 -> (
        match alloc_page t with
        | Error e -> Error e
        | Ok pg ->
          Pm.memset_nt t.pm ~off:(page_off t.lay pg) ~len:psz '\000';
          go ((idx, pg) :: acc) (idx + 1))
      | _ -> go acc (idx + 1)
  in
  let* fresh = go [] first in
  if fresh <> [] then Pm.fence t.pm;
  Ok (fresh, new_indirect)

(* Zero the stale bytes between the current size and [upto] inside already
   mapped blocks, so an extension cannot resurrect old data. Runs before the
   size-publishing transaction: the zeroed region is invisible at the old
   size, keeping the operation atomic. *)
let zero_stale_tail t f ~upto =
  let psz = t.lay.cfg.page_size in
  if upto > f.size && f.size mod psz <> 0 then begin
    let idx = f.size / psz in
    match block_of f idx with
    | 0 -> ()
    | pg ->
      let start = f.size mod psz in
      let stop = min psz (start + (upto - f.size)) in
      Pm.memset_nt t.pm ~off:(page_off t.lay pg + start) ~len:(stop - start) '\000';
      Pm.fence t.pm
  end

let write t ~ino ~off ~data =
  Cov.mark "jfs.write";
  let* f = live t ino in
  let len = String.length data in
  if len = 0 then Ok 0
  else if off + len > max_size t.lay then Error Errno.EFBIG
  else begin
    let psz = t.lay.cfg.page_size in
    let first = off / psz and last = (off + len - 1) / psz in
    let new_size = max f.size (off + len) in
    if off > f.size then zero_stale_tail t f ~upto:off;
    if t.lay.cfg.strict_data then begin
      (* Strict mode (WineFS): copy-on-write every touched block, publish
         all pointers and the size in one transaction. *)
      Cov.mark "jfs.write.strict";
      let rec cow acc idx =
        if idx > last then Ok (List.rev acc)
        else
          let* pg = alloc_page t in
          cow ((idx, pg) :: acc) (idx + 1)
      in
      let* ensure_ind =
        if last >= n_direct && f.indirect = 0 then
          let* pg = alloc_page t in
          Pm.memset_nt t.pm ~off:(page_off t.lay pg) ~len:psz '\000';
          f.indirect <- pg;
          Ok (Some pg)
        else Ok None
      in
      let* fresh = cow [] first in
      let inplace_tail =
        (* Bug 20: blocks after the first are updated in place instead of
           copy-on-write, tearing the supposedly atomic write. *)
        t.bugs.bug20_strict_inplace_tail && List.length fresh > 1
      in
      let fresh = if inplace_tail then [ List.hd fresh ] else fresh in
      List.iter
        (fun (idx, pg) ->
          let old = read_block t f idx in
          let b = Bytes.of_string old in
          let bstart = idx * psz in
          let s = max off bstart and e = min (off + len) (bstart + psz) in
          Bytes.blit_string data (s - off) b (s - bstart) (e - s);
          Pm.memcpy_nt t.pm ~off:(page_off t.lay pg) (Bytes.to_string b))
        fresh;
      if inplace_tail then begin
        Cov.mark "jfs.write.bug20";
        for idx = first + 1 to last do
          match block_of f idx with
          | 0 -> ()
          | pg ->
            let bstart = idx * psz in
            let s = max off bstart and e = min (off + len) (bstart + psz) in
            Pm.memcpy_nt t.pm ~off:(page_off t.lay pg + (s - bstart))
              (String.sub data (s - off) (e - s))
        done
      end;
      Pm.fence t.pm;
      let spans =
        [ span_size t ino ]
        @ List.map (fun (idx, _) -> (block_ptr_addr t f idx, 4)) fresh
        @ (match ensure_ind with Some _ -> [ (inode_off t.lay ino + i_indirect, 4) ] | None -> [])
      in
      let old_pages = List.filter_map (fun (idx, _) -> match block_of f idx with 0 -> None | p -> Some p) fresh in
      with_tx t ~cpu:(cpu_of t ino) ~spans (fun () ->
          (match ensure_ind with
          | Some pg -> put_u32 t ~off:(inode_off t.lay ino + i_indirect) pg
          | None -> ());
          List.iter (fun (idx, pg) -> set_block t f idx pg) fresh;
          write_size t f new_size);
      List.iter (Blockalloc.free t.alloc) old_pages;
      Ok len
    end
    else begin
      (* PMFS mode: new blocks are populated before the metadata commit;
         existing blocks are overwritten in place (data writes are not
         atomic). *)
      let* fresh, new_indirect = map_blocks t f ~first ~last in
      let fresh_set = List.map fst fresh in
      (* Populate fresh blocks fully (they are unreferenced until the tx). *)
      List.iter
        (fun (idx, pg) ->
          let bstart = idx * psz in
          let s = max off bstart and e = min (off + len) (bstart + psz) in
          Pm.memcpy_nt t.pm
            ~off:(page_off t.lay pg + (s - bstart))
            (String.sub data (s - off) (e - s)))
        fresh;
      (* Overwrite already mapped blocks in place. *)
      for idx = first to last do
        if not (List.mem idx fresh_set) then begin
          let pg = block_of f idx in
          let bstart = idx * psz in
          let s = max off bstart and e = min (off + len) (bstart + psz) in
          Datapath.copy_to_pm ~bug_skip_tail_flush:t.bugs.bug17_skip_tail_flush t.pm
            ~off:(page_off t.lay pg + (s - bstart))
            ~data:(String.sub data (s - off) (e - s))
        end
      done;
      let metadata_changed = fresh <> [] || new_indirect <> None || new_size <> f.size in
      if metadata_changed then begin
        Pm.fence t.pm;
        let spans =
          [ span_size t ino ]
          @ List.map (fun (idx, _) -> (block_ptr_addr t f idx, 4)) fresh
          @
          match new_indirect with
          | Some _ -> [ (inode_off t.lay ino + i_indirect, 4) ]
          | None -> []
        in
        with_tx t ~cpu:(cpu_of t ino) ~spans (fun () ->
            (match new_indirect with
            | Some pg -> put_u32 t ~off:(inode_off t.lay ino + i_indirect) pg
            | None -> ());
            List.iter (fun (idx, pg) -> set_block t f idx pg) fresh;
            write_size t f new_size)
      end
      else if t.bugs.bug14_skip_data_fence then
        (* Bug 14/15: the pure-overwrite fast path returns without fencing
           the data it just wrote. *)
        Cov.mark "jfs.write.unfenced_fastpath"
      else Pm.fence t.pm;
      Ok len
    end
  end

let truncate t ~ino ~size =
  Cov.mark "jfs.truncate";
  let* f = live t ino in
  if size > max_size t.lay then Error Errno.EFBIG
  else if size = f.size then Ok ()
  else if size > f.size then begin
    zero_stale_tail t f ~upto:size;
    with_tx t ~cpu:(cpu_of t ino) ~spans:[ span_size t ino ] (fun () -> write_size t f size);
    Ok ()
  end
  else begin
    let psz = t.lay.cfg.page_size in
    let keep_blocks = (size + psz - 1) / psz in
    (* Phase 1: record the intent on the truncate list. *)
    trunc_list_insert t f ~tkind:1 ~target:size;
    (* Phase 2: shrink and pop the list in one transaction. *)
    let spans =
      [ span_size t ino ]
      @ List.filter_map
          (fun idx -> if block_of f idx <> 0 then Some (block_ptr_addr t f idx, 4) else None)
          (List.init (max_blocks t.lay - keep_blocks) (fun i -> keep_blocks + i))
    in
    trunc_list_remove_head t f spans (fun () ->
        write_size t f size;
        for idx = keep_blocks to max_blocks t.lay - 1 do
          if block_of f idx <> 0 then begin
            (* Record the page for the DRAM free below via the in-memory
               arrays; the persistent pointer is cleared here. *)
            put_u32 t ~off:(block_ptr_addr t f idx) 0
          end
        done);
    (* DRAM: free the dropped pages. *)
    for idx = keep_blocks to max_blocks t.lay - 1 do
      match block_of f idx with
      | 0 -> ()
      | pg ->
        Blockalloc.free t.alloc pg;
        if idx < n_direct then f.direct.(idx) <- 0 else f.ind.(idx - n_direct) <- 0
    done;
    Ok ()
  end

let fallocate t ~ino ~off ~len ~keep_size =
  Cov.mark "jfs.fallocate";
  let* f = live t ino in
  if off + len > max_size t.lay then Error Errno.EFBIG
  else begin
    let psz = t.lay.cfg.page_size in
    let first = off / psz and last = (off + len - 1) / psz in
    let new_size = if keep_size then f.size else max f.size (off + len) in
    if new_size > f.size then zero_stale_tail t f ~upto:new_size;
    let* fresh, new_indirect = map_blocks t f ~first ~last in
    if fresh <> [] || new_indirect <> None || new_size <> f.size then begin
      let spans =
        [ span_size t ino ]
        @ List.map (fun (idx, _) -> (block_ptr_addr t f idx, 4)) fresh
        @
        match new_indirect with
        | Some _ -> [ (inode_off t.lay ino + i_indirect, 4) ]
        | None -> []
      in
      with_tx t ~cpu:(cpu_of t ino) ~spans (fun () ->
          (match new_indirect with
          | Some pg -> put_u32 t ~off:(inode_off t.lay ino + i_indirect) pg
          | None -> ());
          List.iter (fun (idx, pg) -> set_block t f idx pg) fresh;
          write_size t f new_size)
    end;
    Ok ()
  end

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
    if i.links = 0 && i.opens = 0 then free_inode t i

(* ------------------------------------------------------------------ *)
(* mkfs                                                                *)

let mkfs pm cfg =
  let lay = layout cfg in
  if Pm.size pm < lay.size then
    Pmem.Fault.fail "jfs mkfs: device too small (%d < %d)" (Pm.size pm) lay.size;
  let t =
    {
      pm;
      lay;
      bugs = cfg.bugs;
      inodes = Hashtbl.create 32;
      alloc = Blockalloc.create ~n_pages:cfg.n_pages;
    }
  in
  for p = 0 to lay.first_free_page - 1 do
    Blockalloc.mark_used t.alloc p
  done;
  let sb = Bytes.make 32 '\000' in
  Bytes.set_int32_le sb sb_magic (Int32.of_int magic);
  Bytes.set_int32_le sb sb_version (Int32.of_int version);
  Bytes.set_int32_le sb sb_page_size (Int32.of_int cfg.page_size);
  Bytes.set_int32_le sb sb_n_pages (Int32.of_int cfg.n_pages);
  Bytes.set_int32_le sb sb_n_inodes (Int32.of_int cfg.n_inodes);
  Bytes.set sb sb_n_journals (Char.chr cfg.n_journals);
  Bytes.set sb sb_strict (if cfg.strict_data then '\001' else '\000');
  Pm.memcpy_nt t.pm ~off:0 (Bytes.to_string sb);
  let it_bytes =
    (cfg.n_inodes * inode_slot_size + cfg.page_size - 1) / cfg.page_size * cfg.page_size
  in
  Pm.memset_nt t.pm ~off:lay.inode_table ~len:it_bytes '\000';
  Pm.memset_nt t.pm ~off:lay.journal_base
    ~len:(cfg.n_journals * cfg.journal_pages * cfg.page_size)
    '\000';
  let root = fresh_inode lay ~ino:root_ino ~kind:Types.Dir ~links:2 in
  Hashtbl.replace t.inodes root_ino root;
  write_inode_slot t root ~valid:true;
  Pm.fence t.pm;
  t

(* ------------------------------------------------------------------ *)
(* Mount: journal rollback, inode scan, truncate-list replay           *)

exception Mount_error of string

let mount pm cfg =
  let lay = layout cfg in
  let failm fmt = Printf.ksprintf (fun s -> raise (Mount_error s)) fmt in
  let go () =
    if Pm.size pm < lay.size then failm "jfs: device smaller than layout";
    if Pm.read_u32 pm ~off:sb_magic <> magic then failm "jfs: bad superblock magic";
    if Pm.read_u32 pm ~off:sb_version <> version then failm "jfs: bad version";
    if Pm.read_u32 pm ~off:sb_page_size <> cfg.page_size then failm "jfs: page size mismatch";
    if Pm.read_u32 pm ~off:sb_n_pages <> cfg.n_pages then failm "jfs: page count mismatch";
    if Pm.read_u8 pm ~off:sb_n_journals <> cfg.n_journals then failm "jfs: journal count mismatch";
    let t =
      {
        pm;
        lay;
        bugs = cfg.bugs;
        inodes = Hashtbl.create 32;
        alloc = Blockalloc.create ~n_pages:cfg.n_pages;
      }
    in
    (* Step 1: roll back committed journals. Bug 19 mis-indexes the per-CPU
       journal array and only ever recovers journal 0. *)
    let journals_to_recover = if cfg.bugs.bug19_recover_first_journal_only then 1 else cfg.n_journals in
    for cpu = 0 to journals_to_recover - 1 do
      match
        Undo_journal.recover ~bug16_skip_validation:cfg.bugs.bug16_unvalidated_journal pm
          (journal lay cpu) ~device_size:lay.size
      with
      | Ok _ -> ()
      | Error e -> failm "%s" e
    done;
    for p = 0 to lay.first_free_page - 1 do
      Blockalloc.mark_used t.alloc p
    done;
    (* Step 2 (bug 13): the buggy recovery replays the truncate list before
       the volatile allocator state exists; freeing through it is the null
       dereference the paper describes. *)
    if cfg.bugs.bug13_replay_without_freelist && Pm.read_u32 pm ~off:sb_trunc_head <> 0 then begin
      Cov.mark "jfs.mount.bug13";
      Pmem.Fault.fail
        "null pointer dereference: truncate list replayed before free list is built"
    end;
    (* Step 3: load inode slots. *)
    for ino = 0 to cfg.n_inodes - 1 do
      let off = inode_off lay ino in
      if Pm.read_u8 pm ~off:(off + i_valid) = 1 then begin
        let kind = if Pm.read_u8 pm ~off:(off + i_kind) = 2 then Types.Dir else Types.Reg in
        let node = fresh_inode lay ~ino ~kind ~links:(Pm.read_u16 pm ~off:(off + i_links)) in
        node.size <- Pm.read_u64 pm ~off:(off + i_size);
        for i = 0 to n_direct - 1 do
          node.direct.(i) <- Pm.read_u32 pm ~off:(off + i_direct + (4 * i))
        done;
        node.indirect <- Pm.read_u32 pm ~off:(off + i_indirect);
        if node.indirect <> 0 then begin
          if node.indirect >= cfg.n_pages then failm "jfs: inode %d indirect out of range" ino;
          for i = 0 to lay.ind_per_page - 1 do
            node.ind.(i) <- Pm.read_u32 pm ~off:(page_off lay node.indirect + (4 * i))
          done
        end;
        Hashtbl.replace t.inodes ino node
      end
    done;
    if not (Hashtbl.mem t.inodes root_ino) then failm "jfs: no root inode";
    (* Step 4: claim blocks; double references fault. *)
    Hashtbl.iter
      (fun _ node ->
        if node.indirect <> 0 then Blockalloc.mark_used t.alloc node.indirect;
        for idx = 0 to max_blocks lay - 1 do
          let pg = block_of node idx in
          if pg <> 0 then begin
            if pg >= cfg.n_pages then failm "jfs: inode %d block %d out of range" node.ino idx;
            Blockalloc.mark_used t.alloc pg
          end
        done)
      t.inodes;
    (* Step 5: rebuild directories from dentry pages. *)
    let referenced : (int, unit) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _ node ->
        if node.kind = Types.Dir then begin
          let per = dentry_slots_per_page lay in
          for idx = 0 to n_direct - 1 do
            match block_of node idx with
            | 0 -> ()
            | pg ->
              for slot = 0 to per - 1 do
                let addr = page_off lay pg + (slot * dentry_size) in
                if Pm.read_u8 pm ~off:(addr + d_valid) = 1 then begin
                  let target = Pm.read_u32 pm ~off:(addr + d_ino) in
                  let name_len = Pm.read_u8 pm ~off:(addr + d_name_len) in
                  if name_len = 0 || name_len > name_max then
                    failm "jfs: corrupt dentry in directory %d" node.ino;
                  let dname = Pm.read pm ~off:(addr + d_name) ~len:name_len in
                  Hashtbl.replace node.dentries dname { target; addr };
                  Hashtbl.replace referenced target ()
                end
              done
          done
        end)
      t.inodes;
    (* Dentries naming a free inode slot become degraded placeholders: the
       name is visible but every access fails (how bug 19 surfaces as an
       unreadable, undeletable file). Collect first: the inode table must
       not be mutated while it is being iterated. *)
    let dangling =
      Hashtbl.fold
        (fun _ node acc ->
          Hashtbl.fold
            (fun _dname de acc ->
              if Hashtbl.mem t.inodes de.target then acc else de.target :: acc)
            node.dentries acc)
        t.inodes []
    in
    List.iter
      (fun target ->
        Cov.mark "jfs.mount.dangling_dentry";
        let ph = fresh_inode lay ~ino:target ~kind:Types.Reg ~links:1 in
        ph.error <- Some Errno.EIO;
        Hashtbl.replace t.inodes target ph)
      dangling;
    (* Step 6: replay the truncate list (fixed ordering: after the allocator
       and inode scan are ready). *)
    let rec replay head guard =
      if head <> 0 then begin
        if guard > cfg.n_inodes then failm "jfs: truncate list cycle";
        let ino = head - 1 in
        if ino >= cfg.n_inodes then failm "jfs: truncate list references inode %d" ino;
        match Hashtbl.find_opt t.inodes ino with
        | None -> failm "jfs: truncate list references free inode %d" ino
        | Some node ->
          Cov.mark "jfs.mount.trunc_replay";
          let off = inode_off lay ino in
          let next = Pm.read_u32 pm ~off:(off + i_trunc_next) in
          let tkind = Pm.read_u8 pm ~off:(off + i_trunc_kind) in
          let target = Pm.read_u32 pm ~off:(off + i_trunc_target) in
          (if tkind = 2 then begin
             (* Finish freeing the inode. *)
             put_u8 t ~off:(off + i_valid) 0;
             free_blocks_dram t node ~from_idx:0;
             Hashtbl.remove t.inodes ino
           end
           else begin
             (* Finish the truncation. *)
             let psz = cfg.page_size in
             let keep_blocks = (target + psz - 1) / psz in
             node.size <- target;
             put_u64 t ~off:(off + i_size) target;
             for idx = keep_blocks to max_blocks lay - 1 do
               match block_of node idx with
               | 0 -> ()
               | pg ->
                 Blockalloc.free t.alloc pg;
                 put_u32 t ~off:(block_ptr_addr t node idx) 0;
                 if idx < n_direct then node.direct.(idx) <- 0
                 else node.ind.(idx - n_direct) <- 0
             done
           end);
          put_u32 t ~off:(off + i_trunc_next) 0;
          put_u8 t ~off:(off + i_trunc_kind) 0;
          put_u32 t ~off:sb_trunc_head next;
          Pm.fence t.pm;
          replay next (guard + 1)
      end
    in
    replay (Pm.read_u32 pm ~off:sb_trunc_head) 0;
    (* Step 7: reclaim orphans (valid inodes no dentry references). *)
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
        Cov.mark "jfs.mount.orphan";
        put_u8 t ~off:(inode_off lay node.ino + i_valid) 0;
        free_blocks_dram t node ~from_idx:0;
        Hashtbl.remove t.inodes node.ino)
      orphans;
    if orphans <> [] then Pm.fence t.pm;
    t
  in
  match go () with
  | t -> Ok t
  | exception Mount_error e -> Error e
