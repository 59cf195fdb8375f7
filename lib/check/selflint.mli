(** Repository source hygiene: the tree walker over {!Rules}.

    The repo's core contract is bit-identical output for identical
    inputs (goldens, the service's determinism tests, the engine's
    chunked RNG), and the coming multi-client server adds a
    domain-safety contract on top.  This module walks every [.ml] file
    under the source roots and runs the tokenizer-driven rule set
    ({!Rules} over {!Tokens}): determinism hygiene ([VQC201]), stdout
    hygiene ([VQC202]), lock/state discipline ([VQC210]-[VQC212]) and
    descriptor ownership ([VQC213]).
    Pattern hits inside comments and string literals do not flag —
    the scan is token-aware, not a substring grep.

    [.mli] files are not scanned (documentation may name the calls). *)

val scan_tree : root:string -> Vqc_diag.Diagnostic.t list
(** Scan [lib/], [bin/], [examples/], [test/] and [bench/] under
    [root] (directories that don't exist are skipped, [_build] is
    ignored), in sorted path order. *)
