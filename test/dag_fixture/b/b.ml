let v = A.v + 1
