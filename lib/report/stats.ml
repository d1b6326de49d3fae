(* Small statistics helpers for the benchmark harness. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let maximum xs = List.fold_left max neg_infinity xs

(* Nearest-rank percentiles (each p in [0,100]) of an unsorted sample,
   from one sort of an unboxed float array.  [Float.compare] orders as
   [compare] does on floats, nan first, and a stable sort keeps equal
   values (0.0 and -0.0) in the order a list sort would. *)
let percentiles xs ps =
  let sorted = Array.of_list xs in
  Array.stable_sort Float.compare sorted;
  let n = Array.length sorted in
  Array.map
    (fun p ->
      if n = 0 then nan
      else
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        sorted.(max 0 (min (n - 1) (rank - 1))))
    ps

let percentile xs ~p = (percentiles xs [| p |]).(0)

(* Percentage overhead of [x] relative to [baseline]. *)
let overhead_pct ~baseline x = 100.0 *. ((x /. baseline) -. 1.0)
