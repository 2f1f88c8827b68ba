type crash_state = {
  image : Pmem.Image.t;
  mount : unit -> (Vfs.Handle.t, string) result;
  check : unit -> Report.kind list;
}

exception Found of Harness.crash_point

(* Re-record the report's workload and walk its trace exactly as the
   harness does, stopping at the report's crash point, then apply the
   in-flight units the report's subset names. Never raises: a report that
   does not match this driver and these opts (wrong file system, crash
   point past the end of the trace, subset naming writes that are not in
   flight there) is an [Error], as is any hardware fault the re-run
   provokes. *)
let rebuild ~opts (driver : Vfs.Driver.t) (report : Report.t) =
  let cp = report.Report.crash_point in
  if driver.Vfs.Driver.name <> report.Report.fs then
    Error
      (Printf.sprintf "report is for file system %S, driver is %S" report.Report.fs
         driver.Vfs.Driver.name)
  else
    match
      let r = Harness.record ~opts driver report.Report.workload in
      let image = r.Harness.rec_base in
      match
        Harness.walk ~opts ~replay:image r.Harness.rec_trace (fun p ->
            if p.Harness.fence_no = cp.Report.fence_no then raise (Found p))
      with
      | () -> Error "crash point not reached: report does not match this configuration"
      | exception Found p -> (
        let seqs = List.map (fun (u : Coalesce.t) -> u.Coalesce.seq) p.Harness.in_flight in
        match List.filter (fun s -> not (List.mem s seqs)) cp.Report.subset with
        | [] ->
          List.iter
            (fun (u : Coalesce.t) ->
              if List.mem u.Coalesce.seq cp.Report.subset then
                Coalesce.apply (Pmem.Image.write_string image) u)
            p.Harness.in_flight;
          Ok (image, p)
        | missing ->
          Error
            (Printf.sprintf "subset names sequence number(s) %s not in flight at the crash point"
               (String.concat ", " (List.map string_of_int missing))))
    with
    | res -> res
    | exception e -> Error ("reproduction failed: " ^ Pmem.Fault.to_string e)

let in_flight_at ?(opts = Harness.default_opts) driver report =
  Result.map (fun (_, p) -> p.Harness.in_flight) (rebuild ~opts driver report)

let crash_state ?(opts = Harness.default_opts) driver (report : Report.t) =
  Result.map
    (fun (image, (p : Harness.crash_point)) ->
      let workload = report.Report.workload in
      let oracle = Oracle.run workload in
      let mount () = driver.Vfs.Driver.mount (Persist.Pm.create (Pmem.Image.snapshot image)) in
      let check () =
        Harness.mount_and_check ~opts driver ~workload ~oracle ~phase:p.Harness.phase
          (Pmem.Image.snapshot image)
      in
      { image; mount; check })
    (rebuild ~opts driver report)

let verify ?opts driver report =
  match crash_state ?opts driver report with
  | Error _ -> false
  | Ok cs -> cs.check () <> []
