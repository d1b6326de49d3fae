(* Aligned ASCII tables for the benchmark output. *)

type t = {
  title : string;
  header : string list;
  mutable rows : string list list;  (** newest last *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- t.rows @ [ row ]

let widths t =
  let all = t.header :: t.rows in
  let cols = List.length t.header in
  List.init cols (fun i ->
      List.fold_left (fun w row -> max w (String.length (List.nth_opt row i |> Option.value ~default:""))) 0 all)

let render t =
  let ws = widths t in
  let buf = Buffer.create 256 in
  let line ch =
    Buffer.add_string buf "+";
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_string buf "+")
      ws;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_string buf "|";
    List.iteri
      (fun i w ->
        let c = List.nth_opt cells i |> Option.value ~default:"" in
        Buffer.add_string buf (Printf.sprintf " %-*s |" w c))
      ws;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("\n== " ^ t.title ^ " ==\n");
  line '-';
  row t.header;
  line '=';
  List.iter row t.rows;
  line '-';
  Buffer.contents buf

let print t = print_string (render t)
