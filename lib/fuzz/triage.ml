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

(* Each report is tokenized once; a cluster keeps its representative's
   tokens, so placing a report costs one merge per cluster tried. *)
type open_cluster = {
  rep : Chipmunk.Report.t;
  rep_tokens : string list;
  mutable rev_members : Chipmunk.Report.t list;
}

let cluster ?(threshold = 0.6) reports =
  let clusters = ref [] in
  List.iter
    (fun r ->
      let tr = tokens r in
      match List.find_opt (fun c -> jaccard c.rep_tokens tr >= threshold) !clusters with
      | Some c -> c.rev_members <- r :: c.rev_members
      | None -> clusters := !clusters @ [ { rep = r; rep_tokens = tr; rev_members = [ r ] } ])
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
