(* Minimal JSON emitter + parser for benchmark artifacts
   (BENCH_*.json).

   The parser exists so CI can prove the checked-in artifacts are
   well-formed and carry the expected fields; it accepts exactly the
   JSON this module emits (standard JSON minus NaN/Infinity, which the
   emitter never produces) and needs no external dependency. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of 15, 16 or 17 significant digits that reads back as
   the same float (17 always does), with ".0" added where the digits
   alone would read as an integer. *)
let float_repr f =
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec emit buf indent v =
  let pad n = String.make (2 * n) ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/Infinity. *)
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List vs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          emit buf (indent + 1) v)
        vs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf (indent + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string v))

(* ---------------- parsing ---------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else error ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then error "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> error "bad \\u escape"
              in
              pos := !pos + 4;
              (* artifacts are ASCII; keep the low byte like the emitter *)
              Buffer.add_char buf (Char.chr (code land 0xFF));
              go ()
          | _ -> error "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> error ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected '%c'" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
