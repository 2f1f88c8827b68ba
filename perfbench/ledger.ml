(* The per-layer ledger: spans and counts taken at the only boundaries the
   benchmark can see from outside the pipeline, a wrapping [Vfs.Driver.t]
   whose [mkfs], [mount] and returned handles are timed.

   Calls come from every worker domain of a pool, so each domain keeps its
   own accumulator in [Domain.DLS]; accumulators register themselves once
   and [totals] sums them after the run. Spans stay in memory until
   [write_spans] runs at the end. *)

let now = Unix.gettimeofday

(* Layers a handle or driver call is charged to. *)
let mkfs = 0
let workload = 1 (* calls on the handle [mkfs] returned: the recorded workload *)
let mount = 2
let walk = 3 (* read-only calls on a mounted handle: tree walk and checker reads *)
let probe = 4 (* mutating calls on a mounted handle: the usability probe *)
let n_layers = 5

type span = { name : string; dom : int; req : int; t0 : float; t1 : float }

type acc = {
  dom : int;  (* registration order; identifies the domain in spans *)
  gen : int;
  time : float array;  (* per layer, seconds *)
  calls : int array;  (* per layer *)
  mutable mount_failed : int;
  mutable spans : span list;
  (* The execution now open on this domain: one per [mkfs], which is the
     first call [Harness.record] makes into the driver. *)
  mutable req : int;
  mutable exec_start : float;  (* nan when none is open *)
  mutable rec_end : float;  (* end of mkfs or of the last workload call *)
  mutable pm_stats : Persist.Pm.stats option;
  mutable base_stores : int;
  mutable base_fences : int;
  (* Closed executions. *)
  mutable rec_s : float;
  mutable tail_s : float;
  mutable stores : int;
  mutable fences : int;
}

let generation = Atomic.make 0
let registry = ref []
let registry_lock = Mutex.create ()
let next_dom = ref 0

let fresh () =
  Mutex.protect registry_lock (fun () ->
      let a =
        {
          dom = !next_dom;
          gen = Atomic.get generation;
          time = Array.make n_layers 0.0;
          calls = Array.make n_layers 0;
          mount_failed = 0;
          spans = [];
          req = 0;
          exec_start = nan;
          rec_end = nan;
          pm_stats = None;
          base_stores = 0;
          base_fences = 0;
          rec_s = 0.0;
          tail_s = 0.0;
          stores = 0;
          fences = 0;
        }
      in
      incr next_dom;
      registry := a :: !registry;
      a)

let stores_of (s : Persist.Pm.stats) = s.Persist.Pm.nt_calls + s.Persist.Pm.flush_calls

(* Fold the open execution into the closed totals; [t] is when it ended. *)
let close_exec a t =
  if not (Float.is_nan a.exec_start) then begin
    a.rec_s <- a.rec_s +. (a.rec_end -. a.exec_start);
    a.tail_s <- a.tail_s +. (t -. a.rec_end);
    (match a.pm_stats with
    | Some s ->
      a.stores <- a.stores + stores_of s - a.base_stores;
      a.fences <- a.fences + s.Persist.Pm.fence_calls - a.base_fences
    | None -> ());
    a.pm_stats <- None;
    a.exec_start <- nan
  end

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      (* Pool workers are spawned per batch; close their last execution
         when the domain exits. *)
      Domain.at_exit (fun () -> close_exec a (now ()));
      a)

let cur () =
  let a = Domain.DLS.get key in
  if a.gen = Atomic.get generation then a
  else begin
    let a = fresh () in
    Domain.DLS.set key a;
    a
  end

(* Forget everything recorded so far. *)
let reset () =
  Mutex.protect registry_lock (fun () ->
      Atomic.incr generation;
      registry := [];
      next_dom := 0)

let charge a layer t0 t1 =
  a.time.(layer) <- a.time.(layer) +. (t1 -. t0);
  a.calls.(layer) <- a.calls.(layer) + 1

let span a name t0 t1 = a.spans <- { name; dom = a.dom; req = a.req; t0; t1 } :: a.spans

let timed layer f =
  let a = cur () in
  let t0 = now () in
  let stop () =
    let t1 = now () in
    charge a layer t0 t1;
    if layer = workload then a.rec_end <- t1
  in
  match f () with
  | r ->
    stop ();
    r
  | exception e ->
    stop ();
    raise e

let wrap_handle ~read ~write (h : Vfs.Handle.t) : Vfs.Handle.t =
  let r f = timed read f and w f = timed write f in
  {
    Vfs.Handle.name = h.Vfs.Handle.name;
    creat = (fun ~path -> w (fun () -> h.creat ~path));
    open_ = (fun ~path ~flags -> w (fun () -> h.open_ ~path ~flags));
    close = (fun ~fd -> w (fun () -> h.close ~fd));
    mkdir = (fun ~path -> w (fun () -> h.mkdir ~path));
    rmdir = (fun ~path -> w (fun () -> h.rmdir ~path));
    link = (fun ~src ~dst -> w (fun () -> h.link ~src ~dst));
    unlink = (fun ~path -> w (fun () -> h.unlink ~path));
    remove = (fun ~path -> w (fun () -> h.remove ~path));
    rename = (fun ~src ~dst -> w (fun () -> h.rename ~src ~dst));
    truncate = (fun ~path ~size -> w (fun () -> h.truncate ~path ~size));
    write = (fun ~fd ~data -> w (fun () -> h.write ~fd ~data));
    pwrite = (fun ~fd ~off ~data -> w (fun () -> h.pwrite ~fd ~off ~data));
    read = (fun ~fd ~len -> r (fun () -> h.read ~fd ~len));
    pread = (fun ~fd ~off ~len -> r (fun () -> h.pread ~fd ~off ~len));
    lseek = (fun ~fd ~off ~whence -> r (fun () -> h.lseek ~fd ~off ~whence));
    fallocate =
      (fun ~fd ~off ~len ~keep_size -> w (fun () -> h.fallocate ~fd ~off ~len ~keep_size));
    fsync = (fun ~fd -> w (fun () -> h.fsync ~fd));
    fdatasync = (fun ~fd -> w (fun () -> h.fdatasync ~fd));
    sync = (fun () -> w (fun () -> h.sync ()));
    stat = (fun ~path -> r (fun () -> h.stat ~path));
    fstat = (fun ~fd -> r (fun () -> h.fstat ~fd));
    readdir = (fun ~path -> r (fun () -> h.readdir ~path));
    read_file = (fun ~path -> r (fun () -> h.read_file ~path));
    setxattr = (fun ~path ~name ~value -> w (fun () -> h.setxattr ~path ~name ~value));
    getxattr = (fun ~path ~name -> r (fun () -> h.getxattr ~path ~name));
    listxattr = (fun ~path -> r (fun () -> h.listxattr ~path));
    removexattr = (fun ~path ~name -> w (fun () -> h.removexattr ~path ~name));
  }

(* [mkfs] opens a new execution on the calling domain: it is the first
   call [Harness.record] makes into the driver, after the image and its
   [Pm] exist. The recording [Pm]'s persistence counters, read when the
   execution closes, give its trace's store and fence counts. *)
let wrap (d : Vfs.Driver.t) : Vfs.Driver.t =
  let mkfs_ pm =
    let a = cur () in
    let t0 = now () in
    close_exec a t0;
    let h = d.Vfs.Driver.mkfs pm in
    let t1 = now () in
    a.req <- a.calls.(mkfs);
    charge a mkfs t0 t1;
    span a "mkfs" t0 t1;
    let s = Persist.Pm.stats pm in
    a.pm_stats <- Some s;
    a.base_stores <- stores_of s;
    a.base_fences <- s.Persist.Pm.fence_calls;
    a.exec_start <- t0;
    a.rec_end <- t1;
    wrap_handle ~read:workload ~write:workload h
  in
  (* Whatever the inner mount raises is re-raised after its span is
     recorded, so the harness still reports it as a recovery fault. *)
  let mount_ pm =
    let a = cur () in
    let t0 = now () in
    let stop ~failed =
      let t1 = now () in
      charge a mount t0 t1;
      span a "mount" t0 t1;
      if failed then a.mount_failed <- a.mount_failed + 1
    in
    match d.Vfs.Driver.mount pm with
    | Ok h ->
      stop ~failed:false;
      Ok (wrap_handle ~read:walk ~write:probe h)
    | Error m ->
      stop ~failed:true;
      Error m
    | exception e ->
      stop ~failed:true;
      raise e
  in
  { d with mkfs = mkfs_; mount = mount_ }

(* Spans the benchmark records itself, around whole public calls. *)
let bench_span name ~req t0 t1 =
  let a = cur () in
  a.spans <- { name; dom = a.dom; req; t0; t1 } :: a.spans

type totals = {
  time_s : float array;
  n : int array;
  failed_mounts : int;
  record_s : float;  (* mkfs start to the end of the last workload call *)
  after_record_s : float;  (* end of record to the end of the execution *)
  trace_stores : int;
  trace_fences : int;
}

(* Close every open execution at [t_end] and sum all domains. *)
let totals ~t_end =
  let accs = Mutex.protect registry_lock (fun () -> !registry) in
  List.iter (fun a -> close_exec a t_end) accs;
  let sumf f = List.fold_left (fun s a -> s +. f a) 0.0 accs in
  let sumi f = List.fold_left (fun s a -> s + f a) 0 accs in
  {
    time_s = Array.init n_layers (fun l -> sumf (fun a -> a.time.(l)));
    n = Array.init n_layers (fun l -> sumi (fun a -> a.calls.(l)));
    failed_mounts = sumi (fun a -> a.mount_failed);
    record_s = sumf (fun a -> a.rec_s);
    after_record_s = sumf (fun a -> a.tail_s);
    trace_stores = sumi (fun a -> a.stores);
    trace_fences = sumi (fun a -> a.fences);
  }

(* One JSON object per span, times relative to [t_origin]. *)
let write_spans ~path ~t_origin =
  let accs = Mutex.protect registry_lock (fun () -> !registry) in
  let oc = open_out path in
  List.iter
    (fun a ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"name\":%S,\"domain\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            s.name s.dom s.req (s.t0 -. t_origin) (s.t1 -. t_origin))
        (List.rev a.spans))
    (List.rev accs);
  close_out oc
