(* Names A, which only b declares: a transitive-only reference. *)
let v = B.v + A.v
