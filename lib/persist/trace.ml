type write_kind = Nt | Flushed_line

type store = {
  seq : int;
  addr : int;
  data : string;
  kind : write_kind;
  func : string;
}

type op =
  | Store of store
  | Fence
  | Syscall_begin of { idx : int; descr : string }
  | Syscall_end of { idx : int; ret : int }

type t = { mutable items : op list; mutable len : int }

let create () = { items = []; len = 0 }

let record t op =
  t.items <- op :: t.items;
  t.len <- t.len + 1

let length t = t.len

let ops t =
  let a = Array.make t.len Fence in
  let rec fill i = function
    | [] -> ()
    | op :: rest ->
      a.(i) <- op;
      fill (i - 1) rest
  in
  fill (t.len - 1) t.items;
  a

let iter t f = Array.iter f (ops t)

let pp_kind ppf = function
  | Nt -> Format.pp_print_string ppf "nt"
  | Flushed_line -> Format.pp_print_string ppf "clwb"

let pp_op ppf = function
  | Store { seq; addr; data; kind; func } ->
    Format.fprintf ppf "#%d %s[%a] addr=0x%x len=%d" seq func pp_kind kind addr
      (String.length data)
  | Fence -> Format.pp_print_string ppf "sfence"
  | Syscall_begin { idx; descr } -> Format.fprintf ppf "-- begin syscall %d: %s" idx descr
  | Syscall_end { idx; ret } -> Format.fprintf ppf "-- end syscall %d (ret %d)" idx ret

let pp ppf t =
  iter t (fun op -> Format.fprintf ppf "%a@." pp_op op)
