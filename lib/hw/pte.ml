(* 64-bit page-table entry encoding.

   Layout (subset of x86-64 relevant to the simulation):
     bit  0       present
     bit  1       writable
     bit  2       user-accessible (the U/K bit CKI uses for syscall-path
                  isolation of guest-kernel memory inside guest-user
                  address spaces)
     bit  5       accessed
     bit  6       dirty
     bit  7       huge (2 MiB leaf at level 2)
     bit  9       guest-owned bookkeeping bit (software-available)
     bits 12..50  physical frame number
     bits 59..62  protection key (PKS domain for supervisor pages)
     bit  63      no-execute *)

type t = int64

let empty : t = 0L

let b_present = 0
let b_writable = 1
let b_user = 2
let b_accessed = 5
let b_dirty = 6
let b_huge = 7
let _b_soft = 9
let b_nx = 63

let bit n = Int64.shift_left 1L n
let test e n = Int64.logand e (bit n) <> 0L
let set e n = Int64.logor e (bit n)
let clear e n = Int64.logand e (Int64.lognot (bit n))

let is_present e = test e b_present
let is_writable e = test e b_writable
let is_user e = test e b_user
let is_accessed e = test e b_accessed
let is_dirty e = test e b_dirty
let is_huge e = test e b_huge
let is_nx e = test e b_nx
let is_leaf ~level e = level = 1 || (level = 2 && is_huge e)

let pfn_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L 39) 1L) 12
let pfn e = Int64.to_int (Int64.shift_right_logical (Int64.logand e pfn_mask) 12)

let pkey_shift = 59
let pkey_mask = Int64.shift_left 0xFL pkey_shift
let pkey e = Int64.to_int (Int64.shift_right_logical (Int64.logand e pkey_mask) pkey_shift)

type flags = {
  writable : bool;
  user : bool;
  nx : bool;
  huge : bool;
  pkey : int;
}

let default_flags = { writable = true; user = false; nx = false; huge = false; pkey = 0 }

let make ~pfn:frame ~flags =
  if frame < 0 || frame >= 1 lsl 39 then invalid_arg "Pte.make: pfn out of range";
  if flags.pkey < 0 || flags.pkey > 15 then invalid_arg "Pte.make: pkey out of range";
  let e = bit b_present in
  let e = Int64.logor e (Int64.shift_left (Int64.of_int frame) 12) in
  let e = if flags.writable then set e b_writable else e in
  let e = if flags.user then set e b_user else e in
  let e = if flags.nx then set e b_nx else e in
  let e = if flags.huge then set e b_huge else e in
  Int64.logor e (Int64.shift_left (Int64.of_int flags.pkey) pkey_shift)

let flags_of e =
  {
    writable = is_writable e;
    user = is_user e;
    nx = is_nx e;
    huge = is_huge e;
    pkey = pkey e;
  }

let with_pkey e k =
  if k < 0 || k > 15 then invalid_arg "Pte.with_pkey";
  Int64.logor (Int64.logand e (Int64.lognot pkey_mask)) (Int64.shift_left (Int64.of_int k) pkey_shift)

let with_writable e w = if w then set e b_writable else clear e b_writable
let mark_accessed e = set e b_accessed
let mark_dirty e = set e b_dirty
let clear_accessed_dirty e = clear (clear e b_accessed) b_dirty

let pp fmt e =
  if not (is_present e) then Format.fprintf fmt "<not-present>"
  else
    Format.fprintf fmt "pfn=%d%s%s%s%s pkey=%d" (pfn e)
      (if is_writable e then " W" else " RO")
      (if is_user e then " U" else " K")
      (if is_nx e then " NX" else "")
      (if is_huge e then " 2M" else "")
      (pkey e)
