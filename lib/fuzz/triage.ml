type cluster = {
  representative : Chipmunk.Report.t;
  members : Chipmunk.Report.t list;
}

let tokens r =
  let text = Chipmunk.Report.summary r ^ " " ^ Chipmunk.Report.fingerprint r in
  let normalized =
    String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then Char.lowercase_ascii c
        else if c >= '0' && c <= '9' then '#'
        else ' ')
      text
  in
  String.split_on_char ' ' normalized
  |> List.filter (fun s -> String.length s > 1)
  |> List.sort_uniq String.compare

(* Jaccard similarity of two sorted, duplicate-free token lists in one
   merge: the intersection is the equal heads, the union the rest. *)
let jaccard ta tb =
  let rec inter n a b =
    match (a, b) with
    | x :: a', y :: b' ->
      let c = String.compare x y in
      if c = 0 then inter (n + 1) a' b' else if c < 0 then inter n a' b else inter n a b'
    | _ -> n
  in
  let inter = inter 0 ta tb in
  let union = List.length ta + List.length tb - inter in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let similarity a b = jaccard (tokens a) (tokens b)

(* A cluster keeps its representative's tokens, so placing a report costs
   one merge per cluster tried. *)
type open_cluster = {
  rep : Chipmunk.Report.t;
  rep_tokens : string list;
  mutable rev_members : Chipmunk.Report.t list;
}

(* What a report's tokens are a function of: its summary and fingerprint
   read only the fs, the kind, and the call at the crash point's
   during/after index. *)
let token_key (r : Chipmunk.Report.t) =
  let cp = r.Chipmunk.Report.crash_point in
  let call i = List.nth_opt r.Chipmunk.Report.workload i in
  ( r.Chipmunk.Report.fs,
    r.Chipmunk.Report.kind,
    cp.Chipmunk.Report.during_syscall,
    cp.Chipmunk.Report.after_syscall,
    Option.bind cp.Chipmunk.Report.during_syscall call,
    Option.bind cp.Chipmunk.Report.after_syscall call )

(* Each distinct key is tokenized and placed once. Later reports with that
   key have the same tokens, and clusters are only appended and keep their
   representative's tokens, so greedy first-match would place them in the
   same cluster again: every cluster before it still fails, and it still
   matches (it did, or its representative has these very tokens, which a
   threshold of at most 1 accepts). *)
let cluster ?(threshold = 0.6) reports =
  let clusters = ref [] in
  let placed = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = token_key r in
      match Hashtbl.find_opt placed key with
      | Some c -> c.rev_members <- r :: c.rev_members
      | None -> (
        let tr = tokens r in
        match List.find_opt (fun c -> jaccard c.rep_tokens tr >= threshold) !clusters with
        | Some c ->
          c.rev_members <- r :: c.rev_members;
          Hashtbl.add placed key c
        | None ->
          let c = { rep = r; rep_tokens = tr; rev_members = [ r ] } in
          clusters := !clusters @ [ c ];
          if threshold <= 1.0 then Hashtbl.add placed key c))
    reports;
  List.map (fun c -> { representative = c.rep; members = List.rev c.rev_members }) !clusters
  |> List.sort (fun a b -> compare (List.length b.members) (List.length a.members))

let minimize ?opts driver clusters =
  List.map
    (fun c ->
      match Shrink.Minimize.run ?opts driver c.representative with
      | Ok o -> ({ c with representative = o.Shrink.Minimize.report }, Some o)
      | Error _ -> (c, None))
    clusters
