(** Recursive-descent parser for the behavioral input language.

    {v
    process resizer {
      port in  a   : 16;
      port in  b   : 16;
      port out y   : 16;
      var x : 16;  var r : 16;
      loop {
        x = read(a) + 100;
        if (x > 50) { wait; r = x / 3 - 100; }
        else        { wait; r = x * read(b); }
        wait;
        write(y, r);
      }
    }
    v} *)

exception Error of { line : int; col : int; message : string }

val parse : string -> Ast.process
(** Raises {!Error} (or {!Lexer.Error}) on malformed input. *)

(** {1 Located diagnostics}

    Exception-free variants for callers that must degrade gracefully (the
    CLI): lexer and parser errors come back as a located diagnostic
    instead of an exception. *)

type diagnostic = { dline : int; dcol : int; dmessage : string }

val diagnostic_message : diagnostic -> string
(** ["line L, column C: message"] (position omitted when unknown). *)

val parse_result : string -> (Ast.process, diagnostic) result

val parse_file_result : string -> (Ast.process, diagnostic) result
(** I/O failures ([Sys_error]) still raise; only syntax errors are
    captured. *)
