(** Deduplication metrics (Sections 4.2 and 5.4.2).

    For a set of index instances S = {I₁ … I_k} with page sets P₁ … P_k:

    - deduplication ratio  η(S) = 1 − byte(⋃Pᵢ) / Σ byte(Pᵢ)
    - node sharing ratio        = 1 − |⋃Pᵢ| / Σ |Pᵢ|

    Both are computed from reachability over the content-addressed store, so
    they apply uniformly to every index kind. *)

open Siri_crypto
module Store = Siri_store.Store

val union_bytes : Store.t -> Hash.t list -> int
(** byte(P₁ ∪ … ∪ P_k) for the instances rooted at the given hashes. *)

val sum_bytes : Store.t -> Hash.t list -> int
(** byte(P₁) + … + byte(P_k). *)

val union_nodes : Store.t -> Hash.t list -> int

val dedup_ratio : Store.t -> Hash.t list -> float
(** η of the instance set; 0 when no pages are shared, → 1 when almost all
    are.  Returns 0 for an empty or all-empty set. *)

val node_sharing_ratio : Store.t -> Hash.t list -> float

val analytic_eta : alpha:float -> float
(** The paper's closed form for sequentially evolved versions:
    η ≈ 1/2 − α/2, where α is the fraction of records changed between
    consecutive versions (holds for MBT and POS-Tree; MPT deviates with key
    length, Section 4.2.2). *)
