(** Keys, values and the record operations shared by all indexes. *)

type key = string
type value = string

type op =
  | Put of key * value  (** insert or overwrite *)
  | Del of key  (** remove if present *)

val key_of_op : op -> key

val sort_ops : op list -> op list
(** Sort by key; for duplicate keys the last op wins (stable intent of a
    batch that mentions a key twice). *)

val apply_sorted : (key * value) list -> op list -> (key * value) list
(** Merge a sorted entry list with a sorted op batch; both inputs and the
    output are strictly sorted by key. *)

val sort_entries : (key * value) list -> (key * value) list
(** Strictly sorted by key; a key given more than once keeps its last
    value — the contents a batch of puts leaves in an empty index. *)

type diff_entry = {
  key : key;
  left : value option;  (** value in the first instance, if present *)
  right : value option;  (** value in the second instance, if present *)
}
(** One record that is present in only one index or differs in both —
    the output unit of the Diff operation (Section 4.1.3). *)

val pp_diff_entry : Format.formatter -> diff_entry -> unit

val diff_sorted : (key * value) list -> (key * value) list -> diff_entry list
(** Reference diff of two sorted entry lists — the specification that the
    indexes' pruned diffs are tested against. *)

type merge_policy =
  | Prefer_left
  | Prefer_right
  | Fail_on_conflict
  | Resolve of (key -> value -> value -> value)

type conflict = { key : key; left_value : value; right_value : value }

val merge_values :
  merge_policy -> key -> value -> value -> (value, conflict) result
