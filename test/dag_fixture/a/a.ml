let v = 1
