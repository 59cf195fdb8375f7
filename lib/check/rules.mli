(** Source-analysis rules over the {!Tokens} stream.

    Two rule families, both feeding {!Selflint.scan_tree}:

    {b Determinism & output hygiene.}  [VQC201] flags
    environment-seeded RNG anywhere and wall/CPU-clock reads
    ([Unix.gettimeofday], [Sys.time]) outside {!allowed_wall_clock};
    [VQC202] flags stdout prints in library code (under [lib/], minus
    {!allowed_stdout}) — library output goes through formatters or
    return values, never the process's stdout, which belongs to the
    CLI layer and the goldens.

    {b Domain-safety discipline} — the contract the fleet-scale
    concurrent server depends on:
    - [VQC210]: a top-level [let] binding a [ref] or [Hashtbl.create]
      in library code is shared mutable state; it must be [Atomic] or
      carry a registration comment — ["guarded by <lock>"] or
      ["domain-safe"] on the binding line or the line above.
      (Single-line token heuristic: a tripwire, not a proof; [mutable]
      record fields are per-instance state and out of scope.)
    - [VQC211]: a file whose [Mutex.lock] count exceeds its
      [Mutex.unlock] + [Mutex.protect] count has a lock that leaks on
      some (raising) path.
    - [VQC212]: nested lock acquisition (a [Mutex.lock] while another
      lock is held, tracked linearly through the token stream) must
      follow {!canonical_lock_order}; any nesting of locks outside
      that list is flagged.
    - [VQC213]: within one top-level item, two distinct channels bound
      from one descriptor ([let ic = Unix.in_channel_of_descr fd],
      [let oc = Unix.out_channel_of_descr fd]) are both closed
      ([close_in], [close_out], their [_noerr] forms, [In_channel.close],
      [Out_channel.close]).  Each close closes the fd number; the
      second can hit a descriptor already reused for another client.
      One channel must own the descriptor.

    All rules are pure functions of the file path and text. *)

val allowed_wall_clock : string list
(** Path suffixes (['/']-separated) where wall-clock reads are
    deliberate, e.g. ["lib/obs/span.ml"] — all quarantined under the
    non-deterministic ["nd"] output fields by construction. *)

val allowed_stdout : string list
(** Path suffixes under [lib/] allowed to print to stdout (empty: the
    library keeps stdout clean today). *)

val canonical_lock_order : string list
(** The declared acquisition order for locks that legitimately nest,
    outermost first (by the lock variable's name). *)

val scan_source : file:string -> string -> Vqc_diag.Diagnostic.t list
(** [scan_source ~file text] runs every rule over one file's contents;
    [file] is the path reported in locations and matched against the
    allow-lists (rules scoped to library code fire only under
    [lib/]).  Sorted with {!Vqc_diag.Diagnostic.compare}. *)
