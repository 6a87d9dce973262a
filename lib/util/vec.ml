type 'a t = { mutable data : 'a array; mutable len : int }

let create ?(capacity = 8) () = { data = [||]; len = 0 } |> fun t ->
  ignore capacity;
  t

let length t = t.len

let push t x =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let ncap = max 8 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec.%s: index %d out of range" name i)

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)
