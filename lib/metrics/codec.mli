(** The one encoder and reader behind every exported artifact.

    Trace dumps, monitor series and dashboards, audit digest streams,
    experiment CSV tables and the bench summaries all encode through
    this module, and every tool that reads one of them back ([now_sim
    bisect --file-a], [scripts/bench_diff], [scripts/bench_report])
    decodes through {!Json.parse}.  Keeping a single copy means a string
    a writer emits is always a string the reader accepts. *)

module Json : sig
  (** A parsed JSON document.  Integer literals (no fraction, no
      exponent, within [int] range) read back as [Int], exactly; every
      other number is a [Num].  Object members keep their input order. *)
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Str of string
    | Int of int
    | Num of float
    | Bool of bool
    | Null

  exception Error of string
  (** Raised by {!parse}, {!map_lines} and the accessors; the message
      names the byte offset, line or field at fault. *)

  val error : ('a, unit, string, 'b) format4 -> 'a
  (** [error fmt ...] raises {!Error} with the formatted message: how a
      decoder built on the accessors rejects a document. *)

  val add_string : Buffer.t -> string -> unit
  (** Append [s] as a quoted JSON string.  The escape rule: the double
      quote, the backslash and newline get the two-character short forms
      (backslash, then the quote, the backslash or [n]); every other
      byte below 0x20 becomes [\u00xx] (lower-case hex); all other
      bytes, including non-ASCII, are copied as they are. *)

  val string : string -> string
  (** [add_string] into a fresh string. *)

  val parse : string -> t
  (** Parse one complete JSON document (surrounding whitespace allowed).
      Reads every escape the writer emits plus the other standard ones;
      [\uXXXX] at or above 0x80 is stored as UTF-8.
      @raise Error ["<reason> at byte N"]. *)

  val map_lines : (t -> 'a) -> string -> 'a list
  (** Parse JSONL: apply [f] to each non-blank line's document, in
      order.  Blank lines are skipped and not counted.
      @raise Error ["line N: <reason>"] when line [N] does not parse or
      [f] raises {!Error} on it. *)

  val member : string -> t -> t
  (** The value of an object's field.
      @raise Error when the field is missing or the value is not an
      object. *)

  val num : string -> t -> float
  (** [member] as a float: [Int] and [Num] convert, [Null] is [nan].
      @raise Error on a missing or non-numeric field. *)

  val num_opt : string -> t -> float option
  (** Like {!num}, but [None] when the field is absent or not a number —
      for fields newer than some recorded files. *)
end

module Csv : sig
  val field : string -> string
  (** One RFC 4180 field: wrapped in double quotes, with each inner
      double quote doubled, when it holds a comma, a double quote, [\n]
      or [\r]; otherwise unchanged. *)
end

module Html : sig
  val escape : string -> string
  (** Text or attribute content: [&], [<], [>] and the double quote
      become entity references. *)
end
