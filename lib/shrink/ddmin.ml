type stats = { probes : int; cache_hits : int }

(* Split [l] into [n] contiguous chunks whose sizes differ by at most one
   (the first [len mod n] chunks get the extra element). *)
let split l n =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec go l i =
    if i >= n then []
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | x :: rest -> take (k - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let chunk, rest = take size [] l in
      chunk :: go rest (i + 1)
  in
  go l 0

let run ~test items =
  let arr = Array.of_list items in
  let len0 = Array.length arr in
  (* ddmin works on index lists so memoization keys are compact and the
     caller's elements are never compared. *)
  let cache : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let probes = ref 0 and hits = ref 0 in
  let key idxs = String.concat "," (List.map string_of_int idxs) in
  let check idxs =
    let k = key idxs in
    match Hashtbl.find_opt cache k with
    | Some v ->
      incr hits;
      v
    | None ->
      incr probes;
      let v = test (List.map (fun i -> arr.(i)) idxs) in
      Hashtbl.replace cache k v;
      v
  in
  let rec go current n =
    let len = List.length current in
    if len <= 1 then current
    else
      let chunks = split current n in
      (* Reduce to a subset: some chunk alone still fails. *)
      match List.find_opt check chunks with
      | Some c -> go c 2
      | None -> (
        (* Reduce to a complement (skip at n = 2, where complements are the
           chunks just probed). *)
        let complement i = List.concat (List.filteri (fun j _ -> j <> i) chunks) in
        let comp =
          if n <= 2 then None
          else
            let rec find i = if i >= n then None else
              let c = complement i in
              if check c then Some c else find (i + 1)
            in
            find 0
        in
        match comp with
        | Some c -> go c (max (n - 1) 2)
        | None ->
          (* Increase granularity until chunks are single elements; at
             n = len every complement probe is a single-element removal, so
             termination here is 1-minimality. *)
          if n < len then go current (min len (2 * n)) else current)
  in
  let result =
    if len0 = 0 || check [] then []
    else go (List.init len0 Fun.id) (min 2 len0)
  in
  (List.map (fun i -> arr.(i)) result, { probes = !probes; cache_hits = !hits })
