(** Virtual/physical address arithmetic for the simulated machine.

    4 KiB pages, x86-64-style 4-level paging: 9 index bits per level,
    48-bit canonical virtual addresses. *)

val page_shift : int
val page_size : int

val entries_per_table : int
(** Entries per page-table page (512). *)

val levels : int
(** Paging levels (4). *)

type va = int
(** A virtual address. *)

type pa = int
(** A physical address. *)

type pfn = int
(** A physical frame number ([pa lsr page_shift]). *)

type vpn = int
(** A virtual page number ([va lsr page_shift]). *)

val equal_va : va -> va -> bool
val equal_pa : pa -> pa -> bool
val equal_pfn : pfn -> pfn -> bool
val equal_vpn : vpn -> vpn -> bool
val show_va : va -> string
val show_pa : pa -> string
val show_pfn : pfn -> string
val show_vpn : vpn -> string
val pp_pfn : Format.formatter -> pfn -> unit
val pp_vpn : Format.formatter -> vpn -> unit

val page_align_down : int -> int
(** Round down to a page boundary. *)

val page_align_up : int -> int
(** Round up to a page boundary. *)

val is_page_aligned : int -> bool
val pfn_of_pa : pa -> pfn
val pa_of_pfn : pfn -> pa
val vpn_of_va : va -> vpn
val va_of_vpn : vpn -> va

val page_offset : int -> int
(** Offset of an address within its page. *)

val index_at_level : lvl:int -> va -> int
(** Page-table index of [va] at level [lvl] (4 = top / PML4, 1 = leaf).
    @raise Invalid_argument if [lvl] is outside 1..4. *)

val span : lvl:int -> int
(** Bytes of address space one entry at level [lvl] covers: 4 KiB at
    1, 2 MiB at 2, 1 GiB at 3, 512 GiB at 4. *)

val pages_of_bytes : int -> int
(** Number of 4 KiB pages needed to back a byte count. *)

val pp_va : Format.formatter -> va -> unit
val pp_pa : Format.formatter -> pa -> unit
