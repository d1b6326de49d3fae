(* Small statistics helpers for the benchmark harness. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let maximum xs = List.fold_left max neg_infinity xs

(* Nearest-rank percentile (p in [0,100]) of an unsorted sample. *)
let percentile xs ~p =
  match xs with
  | [] -> nan
  | _ ->
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* Percentage overhead of [x] relative to [baseline]. *)
let overhead_pct ~baseline x = 100.0 *. ((x /. baseline) -. 1.0)
