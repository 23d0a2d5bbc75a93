(* Plain-text COO serialization for tensors.

   Format:
     # dims: 3 4
     # fill: 0
     # formats: dense sparse
     0 1 2.5
     2 3 1
   Lines starting with '#' carry metadata; every other non-empty line is a
   coordinate tuple followed by the value.  Values are written by
   [Float_text] and read back bit for bit, non-finite ones included
   ("inf", "-inf", "nan", "nan:0x<bits>"). *)

let format_of_string = function
  | "dense" -> Tensor.Dense
  | "sparse" -> Tensor.Sparse_list
  | "bytemap" -> Tensor.Bytemap
  | "hash" -> Tensor.Hash
  | s -> invalid_arg ("Tensor_io: unknown format " ^ s)

let split_ws (s : string) : string list =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let load (path : string) : Tensor.t =
  let ic = open_in path in
  let dims = ref None and fill = ref 0.0 and formats = ref None in
  let entries = Vec.Poly.create ~dummy:([||], 0.0) () in
  (try
     let rec loop () =
       let line = String.trim (input_line ic) in
       (if line = "" then ()
        else if String.length line > 0 && line.[0] = '#' then begin
          let body = String.trim (String.sub line 1 (String.length line - 1)) in
          match String.index_opt body ':' with
          | Some k ->
              let key = String.trim (String.sub body 0 k) in
              let value =
                String.trim (String.sub body (k + 1) (String.length body - k - 1))
              in
              (match key with
              | "dims" ->
                  dims :=
                    Some (Array.of_list (List.map int_of_string (split_ws value)))
              | "fill" -> fill := Float_text.of_string value
              | "formats" ->
                  formats :=
                    Some
                      (Array.of_list (List.map format_of_string (split_ws value)))
              | _ -> ())
          | None -> ()
        end
        else
          match List.rev (split_ws line) with
          | v :: coords_rev ->
              let coords =
                Array.of_list (List.rev_map int_of_string coords_rev)
              in
              Vec.Poly.push entries (coords, Float_text.of_string v)
          | [] -> ());
       loop ()
     in
     loop ()
   with End_of_file -> close_in ic);
  let dims =
    match !dims with
    | Some d -> d
    | None -> invalid_arg (path ^ ": missing '# dims:' header")
  in
  let formats =
    match !formats with
    | Some f -> f
    | None ->
        (* Default: dense outer dimension, sparse inner ones. *)
        Array.init (Array.length dims) (fun k ->
            if k = 0 then Tensor.Dense else Tensor.Sparse_list)
  in
  Tensor.of_coo ~fill:!fill ~dims ~formats (Vec.Poly.to_array entries)

let save (path : string) (t : Tensor.t) : unit =
  let oc = open_out path in
  let dims = Tensor.dims t in
  (* One line at a time: each coordinate, a space, the value. *)
  let line = Bytes.create ((Array.length dims * 21) + Float_text.max_length + 1) in
  let output_value p v =
    let p = Float_text.write line p v in
    Bytes.set line p '\n';
    output oc line 0 (p + 1)
  in
  Printf.fprintf oc "# dims: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int dims)));
  output_string oc "# fill: ";
  output_value 0 (Tensor.fill t);
  Printf.fprintf oc "# formats: %s\n"
    (String.concat " "
       (Array.to_list (Array.map Tensor.format_to_string (Tensor.formats t))));
  Tensor.iter_nonfill_in_place t (fun coords v ->
      let p = ref 0 in
      Array.iter
        (fun c ->
          p := Float_text.write_int line !p c;
          Bytes.set line !p ' ';
          incr p)
        coords;
      output_value !p v);
  close_out oc
