(** A map from vpn to a non-negative int, shaped like the page tables
    it mirrors: the table behind each of {!Mm}'s per-page facts
    (resident frame, CoW reserve, frozen, write-protected, dirty).

    Fixed-size int-array leaves, each covering an aligned run of
    {!leaf_size} vpns with [-1] for an absent key and a count of the
    keys it holds, under a directory of leaf ids kept in ascending
    order.  So {!iter} and {!keys} are ascending without a sort, and
    {!find}, {!mem}, {!remove} and a {!replace} into an existing leaf
    allocate nothing (a lookup tries the leaf found last, then
    binary-searches the directory).  A leaf is freed when its last key
    goes: the map holds only the leaves of its keys. *)

type t

val leaf_size : int
(** Vpns per leaf; a power of two dividing 512, so an L1 table's range
    is a whole number of leaves. *)

val create : unit -> t
(** An empty map; it holds no leaf. *)

val length : t -> int
(** Keys held, in O(1). *)

val leaves : t -> int
(** Leaves held, in O(1); for tests and statistics. *)

val find : t -> Hw.Addr.vpn -> int
(** The value bound to a vpn, or [-1] when it has none. *)

val mem : t -> Hw.Addr.vpn -> bool

val replace : t -> Hw.Addr.vpn -> int -> unit
(** Bind a vpn, replacing any earlier value.
    @raise Invalid_argument on a negative vpn or value. *)

val remove : t -> Hw.Addr.vpn -> unit
(** Unbind a vpn (a no-op when it has no value), freeing its leaf if
    that was the leaf's last key. *)

val clear : t -> unit
(** Remove every key and free every leaf. *)

val iter : t -> (Hw.Addr.vpn -> int -> unit) -> unit
(** [iter t f] calls [f vpn v] on every binding in ascending vpn order.
    [f] may replace the value of a key but must not add or remove
    keys of [t]. *)

val keys : t -> int array
(** Every key in ascending order, as a fresh array. *)
