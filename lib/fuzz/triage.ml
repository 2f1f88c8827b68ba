type cluster = {
  representative : Chipmunk.Report.t;
  size : int;
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
  mutable count : int;
}

type key = string * string * Chipmunk.Report.kind * int option * int option

(* What a report's tokens are a function of: its summary and fingerprint
   read only the fs, the kind, the crash point's during/after index and
   the first word of the call there, which the fingerprint's context
   carries. *)
let key ~fingerprint (r : Chipmunk.Report.t) =
  let cp = r.Chipmunk.Report.crash_point in
  ( r.Chipmunk.Report.fs,
    fingerprint,
    r.Chipmunk.Report.kind,
    cp.Chipmunk.Report.during_syscall,
    cp.Chipmunk.Report.after_syscall )

type t = {
  mutable open_clusters : open_cluster list;  (* creation order *)
  placed : (key, open_cluster) Hashtbl.t;
}

let create () = { open_clusters = []; placed = Hashtbl.create 64 }

(* The similarity at which a report joins a cluster. *)
let threshold = 0.6

(* Each distinct key is tokenized and placed once. Later reports with that
   key have the same tokens, and clusters are only appended and keep their
   representative's tokens, so greedy first-match would place them in the
   same cluster again: every cluster before it still fails, and it still
   matches (it did, or its representative has these very tokens, which
   [threshold] accepts). *)
let add t ~fingerprint r =
  let key = key ~fingerprint r in
  let c =
    match Hashtbl.find_opt t.placed key with
    | Some c -> c
    | None ->
      let tr = tokens r in
      let c =
        match List.find_opt (fun c -> jaccard c.rep_tokens tr >= threshold) t.open_clusters with
        | Some c -> c
        | None ->
          let c = { rep = r; rep_tokens = tr; count = 0 } in
          t.open_clusters <- t.open_clusters @ [ c ];
          c
      in
      Hashtbl.add t.placed key c;
      c
  in
  c.count <- c.count + 1

let clusters t =
  List.map (fun c -> { representative = c.rep; size = c.count }) t.open_clusters
  |> List.stable_sort (fun a b -> compare b.size a.size)

let cluster reports =
  let t = create () in
  List.iter (fun r -> add t ~fingerprint:(Chipmunk.Report.fingerprint r) r) reports;
  clusters t

let minimize ?opts driver clusters =
  List.map
    (fun c ->
      match Shrink.Minimize.run ?opts driver c.representative with
      | Ok o -> ({ c with representative = o.Shrink.Minimize.report }, Some o)
      | Error _ -> (c, None))
    clusters
