type stats = {
  mutable nt_calls : int;
  mutable flush_calls : int;
  mutable fence_calls : int;
  mutable cached_stores : int;
  mutable bytes_written : int;
}

type granularity = Function_level | Instruction_level

type t = {
  image : Pmem.Image.t;
  mutable logger : (Trace.op -> unit) option;
  mutable read_hook : (int -> int -> unit) option;
  mutable seq : int;
  mutable granularity : granularity;
  stats : stats;
}

let create image =
  {
    image;
    logger = None;
    read_hook = None;
    seq = 0;
    granularity = Function_level;
    stats =
      { nt_calls = 0; flush_calls = 0; fence_calls = 0; cached_stores = 0; bytes_written = 0 };
  }

let set_granularity t g = t.granularity <- g

let image t = t.image
let size t = Pmem.Image.size t.image
let stats t = t.stats
let set_logger t logger = t.logger <- logger
let trace_to t trace = t.logger <- Some (Trace.record trace)
let set_read_hook t hook = t.read_hook <- hook

let note_read t ~off ~len =
  match t.read_hook with None -> () | Some f -> f off len

let log t op =
  match t.logger with
  | None -> ()
  | Some f -> f op

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let raw_write t ~off data =
  Pmem.Image.write_string t.image ~off data;
  t.stats.bytes_written <- t.stats.bytes_written + String.length data

(* Persistence functions -- the interception points. *)

(* Instruction-level logging (the Yat/Vinter/PMTest approach the paper
   contrasts with, section 3.2): every architectural store unit is its own
   record, so a single memcpy produces ceil(len/8) instrumentation points
   instead of one. Kept as an ablation mode; everything in this repository
   defaults to the paper's function-level interception. *)
let log_nt t ~off data ~func =
  match t.granularity with
  (* With no logger (mkfs, mounts, probes), build no record but take its
     seq, which reports and reproducers name stores by. *)
  | Function_level when Option.is_none t.logger -> ignore (next_seq t)
  | Function_level ->
    log t (Store { seq = next_seq t; addr = off; data; kind = Trace.Nt; func })
  | Instruction_level ->
    let len = String.length data in
    let unit_size = Pmem.Const.atomic_unit in
    let rec go pos =
      if pos < len then begin
        let n = min unit_size (len - pos) in
        log t
          (Store
             {
               seq = next_seq t;
               addr = off + pos;
               data = String.sub data pos n;
               kind = Trace.Nt;
               func;
             });
        go (pos + n)
      end
    in
    go 0

let memcpy_nt t ~off data =
  raw_write t ~off data;
  t.stats.nt_calls <- t.stats.nt_calls + 1;
  log_nt t ~off data ~func:"memcpy_nt"

let memset_nt t ~off ~len c =
  let data = String.make len c in
  raw_write t ~off data;
  t.stats.nt_calls <- t.stats.nt_calls + 1;
  log_nt t ~off data ~func:"memset_nt"

let flush t ~off ~len =
  if len > 0 then begin
    (* Write-back happens at cache-line granularity: widen to line bounds,
       clamped to the device. The contents recorded are those visible at
       flush time, exactly as a probe on flush_buffer would capture them. *)
    let base = Pmem.Const.line_base off in
    let stop =
      let e = off + len in
      let rem = e mod Pmem.Const.cache_line in
      if rem = 0 then e else e + (Pmem.Const.cache_line - rem)
    in
    let base = max 0 base and stop = min stop (Pmem.Image.size t.image) in
    t.stats.flush_calls <- t.stats.flush_calls + 1;
    match t.granularity with
    (* As in [log_nt]; an out-of-range flush still faults in [Image.read]. *)
    | Function_level when Option.is_none t.logger && base <= stop -> ignore (next_seq t)
    | Function_level ->
      let data = Pmem.Image.read t.image ~off:base ~len:(stop - base) in
      log t
        (Store
           { seq = next_seq t; addr = base; data; kind = Trace.Flushed_line; func = "flush_buffer" })
    | Instruction_level ->
      (* One record per cache line, like tracing individual clwb ops. *)
      let rec go pos =
        if pos < stop then begin
          let n = min Pmem.Const.cache_line (stop - pos) in
          log t
            (Store
               {
                 seq = next_seq t;
                 addr = pos;
                 data = Pmem.Image.read t.image ~off:pos ~len:n;
                 kind = Trace.Flushed_line;
                 func = "flush_buffer";
               });
          go (pos + n)
        end
      in
      go base
  end

let fence t =
  t.stats.fence_calls <- t.stats.fence_calls + 1;
  log t Trace.Fence

(* Plain cached stores: reach media only through a later flush. *)

let store t ~off data =
  raw_write t ~off data;
  t.stats.cached_stores <- t.stats.cached_stores + 1

let le_bytes n v =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xFF))
  done;
  Bytes.unsafe_to_string b

let store_u64 t ~off v = store t ~off (le_bytes 8 v)
let nt_u32 t ~off v = memcpy_nt t ~off (le_bytes 4 v)
let nt_u64 t ~off v = memcpy_nt t ~off (le_bytes 8 v)

let persist_u64 t ~off v =
  nt_u64 t ~off v;
  fence t

let read t ~off ~len =
  note_read t ~off ~len;
  Pmem.Image.read t.image ~off ~len

let read_u8 t ~off =
  note_read t ~off ~len:1;
  Pmem.Image.read_u8 t.image ~off

let read_u16 t ~off =
  note_read t ~off ~len:2;
  Pmem.Image.read_u16 t.image ~off

let read_u32 t ~off =
  note_read t ~off ~len:4;
  Pmem.Image.read_u32 t.image ~off

let read_u64 t ~off =
  note_read t ~off ~len:8;
  Pmem.Image.read_u64 t.image ~off

let mark_syscall_begin t ~idx ~descr = log t (Trace.Syscall_begin { idx; descr })
let mark_syscall_end t ~idx ~ret = log t (Trace.Syscall_end { idx; ret })
