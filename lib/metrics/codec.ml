(* The one encoder and reader behind every export: JSON strings and
   documents, CSV fields, HTML text.  Stdlib only, so every library that
   writes an artifact (and the scripts that read them back) can share it. *)

module Json = struct
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Str of string
    | Int of int
    | Num of float
    | Bool of bool
    | Null

  exception Error of string

  let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

  let add_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let string s =
    let buf = Buffer.create (String.length s + 2) in
    add_string buf s;
    Buffer.contents buf

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = error "%s at byte %d" msg !pos in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> incr pos
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let code =
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code -> code
              | None -> fail "bad \\u escape"
            in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else
              Buffer.add_utf_8_uchar buf
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | _ -> fail "unknown escape");
          loop ()
        end
        else begin
          Buffer.add_char buf c;
          loop ()
        end
      in
      loop ()
    in
    (* Integer literals stay [Int] so ids and counts read back exactly;
       anything with a fraction or exponent (or beyond [max_int]) is a
       [Num]. *)
    let parse_number () =
      let start = !pos in
      let integral = ref true in
      let rec scan () =
        match peek () with
        | Some ('0' .. '9' | '-') ->
          incr pos;
          scan ()
        | Some ('+' | '.' | 'e' | 'E') ->
          integral := false;
          incr pos;
          scan ()
        | _ -> ()
      in
      scan ();
      let lit = String.sub s start (!pos - start) in
      match (if !integral then int_of_string_opt lit else None) with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Num f
        | None -> fail (Printf.sprintf "bad number %S" lit))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value ())))
      | Some '[' -> Arr (sequence ']' parse_value)
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    (* The comma-separated items of an object or array, up to [close]. *)
    and sequence : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      incr pos;
      skip_ws ();
      if peek () = Some close then begin
        incr pos;
        []
      end
      else
        let rec loop acc =
          let x = item () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            loop (x :: acc)
          | Some c when c = close ->
            incr pos;
            List.rev (x :: acc)
          | _ -> fail (Printf.sprintf "expected ',' or %C" close)
        in
        loop []
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let map_lines f data =
    String.split_on_char '\n' data
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i line ->
           try f (parse line) with Error msg -> error "line %d: %s" (i + 1) msg)

  let member name = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> error "missing field %S" name)
    | _ -> error "expected an object holding %S" name

  let num name j =
    match member name j with
    | Int i -> float_of_int i
    | Num f -> f
    | Null -> nan
    | _ -> error "field %S is not a number" name

  let num_opt name = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | Some (Int i) -> Some (float_of_int i)
      | Some (Num f) -> Some f
      | _ -> None)
    | _ -> None
end

module Csv = struct
  let field s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
    then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
end

module Html = struct
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
end
