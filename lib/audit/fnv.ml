(* FNV-1a, 64-bit.  Chosen for the digest stream because it is a pure
   byte-fold: the digest of a canonical (sorted) serialisation is itself
   canonical, with no block padding or finalisation state to reason
   about, and collisions are irrelevant here — digests are compared for
   equality between two runs of the *same* code, never used as keys. *)

type t = int64

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let init = offset_basis

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* Fold byte [shift / 8] of [v]. *)
let[@inline] step h v shift =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v shift) 0xffL)) prime

(* The eight steps written out, not folded through a ref: straight-line
   int64 lets stay unboxed, a ref would box every intermediate. *)
let[@inline] int64 h v =
  let h = step h v 0 in
  let h = step h v 8 in
  let h = step h v 16 in
  let h = step h v 24 in
  let h = step h v 32 in
  let h = step h v 40 in
  let h = step h v 48 in
  step h v 56

let int h v = int64 h (Int64.of_int v)

let string h s =
  let h = ref h in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  (* A terminator so ["ab";"c"] and ["a";"bc"] fold differently. *)
  byte !h 0xff

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
