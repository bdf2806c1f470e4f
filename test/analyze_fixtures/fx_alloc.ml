(* Zero-alloc fixtures.  [hot_pair] boxes a tuple; [cool_add] uses a
   ref the compiler unboxes (Simplif.eliminate_ref), which the checker
   must accept; [hot_allowed] carries a pragma blessing its boxing.
   The pragma just below is deliberately malformed (no reason) so the
   bad-pragma meta-rule has a fixture too. *)

(* archpred-analyze: allow hot-alloc *)

let hot_pair x = (x, x + 1)

let cool_add x =
  let acc = ref x in
  incr acc;
  !acc

let hot_allowed x =
  (* archpred-analyze: allow hot-alloc -- fixture: the boxing is the point *)
  (x, x)

(* Polymorphic compares in a hot path: [hot_max] calls the generic
   [Stdlib.max] although its arguments are ints; [cool_int_compare]
   uses [compare] at [int], which the compiler specialises, so the
   checker must accept it; [hot_tuple_compare] compares tuples, which
   stays generic. *)

let hot_max (x : int) y = max x y
let cool_int_compare (x : int) y = compare x y
let hot_tuple_compare (a : int * int) b = compare a b
