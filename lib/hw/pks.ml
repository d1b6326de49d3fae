(* Protection Keys for Supervisor pages (PKS) — and its user-mode
   sibling PKU.

   A 32-bit rights register holds 2 bits per key (16 keys):
     bit 2k   = AD (access disable)
     bit 2k+1 = WD (write disable)
   PKRS permissions apply to supervisor (U=0) pages; PKRU to user
   pages.  Key 0 with rights 0 is the "all access" state the KSM runs
   with; CKI's guest kernels run with PKRS = [pkrs_guest]. *)

type perm = Read_write | Read_only | No_access [@@deriving show { with_path = false }, eq]

let num_keys = 16

type rights = int
(** A PKRS/PKRU register value. *)

let pp_rights fmt (r : rights) = Format.fprintf fmt "%#x" r
let equal_rights (a : rights) b = a = b
let show_rights (r : rights) = Printf.sprintf "%#x" r

let all_access : rights = 0

let check_key k = if k < 0 || k >= num_keys then invalid_arg "Pks: key out of range"

(* Build a rights register from a per-key permission assignment;
   unlisted keys default to [default]. *)
let make ?(default = Read_write) assignments : rights =
  let bits_of = function Read_write -> 0 | Read_only -> 2 | No_access -> 1 in
  let r = ref 0 in
  for k = 0 to num_keys - 1 do
    let p = match List.assoc_opt k assignments with Some p -> p | None -> default in
    (match List.assoc_opt k assignments with Some _ -> check_key k | None -> ());
    r := !r lor (bits_of p lsl (2 * k))
  done;
  !r

let perm_of (r : rights) ~key =
  check_key key;
  let bits = (r lsr (2 * key)) land 3 in
  if bits land 1 <> 0 then No_access else if bits land 2 <> 0 then Read_only else Read_write

type access = Read | Write [@@deriving show { with_path = false }, eq]

(* Does [r] allow [access] on a page tagged with [key]? *)
let allows (r : rights) ~key access =
  match (perm_of r ~key, access) with
  | Read_write, _ -> true
  | Read_only, Read -> true
  | Read_only, Write -> false
  | No_access, _ -> false

(* ------------------------------------------------------------------ *)
(* CKI's fixed PKS domain layout within a container address space      *)
(* (Section 3.3: only two domains are needed per container, so the     *)
(* 16-key limit never constrains the number of containers).            *)
(* ------------------------------------------------------------------ *)

(* Key tagging KSM-private pages (monitor code, per-vCPU areas, IDT). *)
let pkey_ksm = 1

(* Key tagging declared page-table pages: read-only to the guest. *)
let pkey_ptp = 2

(* Key tagging ordinary guest pages. *)
let pkey_guest = 0

(* PKRS while the *guest kernel* runs: no access to KSM memory,
   read-only access to PTPs, full access to its own pages. *)
let pkrs_guest : rights =
  make [ (pkey_ksm, No_access); (pkey_ptp, Read_only); (pkey_guest, Read_write) ]

(* PKRS while the KSM runs: unrestricted. *)
let pkrs_ksm : rights = all_access
