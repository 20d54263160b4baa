let rank n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank n p - 1)

let candidates = [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.90); ("p50", 0.50) ]

let tail sorted =
  let n = Array.length sorted in
  if n = 0 then ("none", 0.0)
  else
    match List.find_opt (fun (_, p) -> n - rank n p >= 10) candidates with
    | Some (label, p) -> (label, quantile sorted p)
    | None -> ("max", sorted.(n - 1))
