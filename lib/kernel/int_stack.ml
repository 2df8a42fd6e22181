(* The top chunk is [data]; the chunks below it, and any spare left
   above it by a [drop], are held by [chunks], which stays [[||]] until
   the first chunk fills up.  A chunk above the top is kept, so a stack
   that crosses a boundary back and forth allocates once. *)

let chunk = 3840

type t = {
  mutable data : int array;
  mutable top : int;
  mutable level : int;
  mutable chunks : int array array;
}

let create () =
  {
    data = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |];
    top = 0;
    level = 0;
    chunks = [||];
  }

(* [data] is full: below [chunk] it doubles, the last time to [chunk]
   exactly; from there on a new chunk goes on top *)
let grow s =
  let n = Array.length s.data in
  if n < chunk then begin
    let d = Array.make (min (2 * n) chunk) 0 in
    Array.blit s.data 0 d 0 n;
    s.data <- d
  end
  else begin
    if Array.length s.chunks = 0 then s.chunks <- [| s.data; [||] |];
    let l = s.level + 1 in
    if l = Array.length s.chunks then begin
      let c = Array.make (2 * l) [||] in
      Array.blit s.chunks 0 c 0 l;
      s.chunks <- c
    end;
    if Array.length s.chunks.(l) = 0 then s.chunks.(l) <- Array.make chunk 0;
    s.level <- l;
    s.data <- s.chunks.(l);
    s.top <- 0
  end

let push s x =
  if s.top = Array.length s.data then grow s;
  Array.unsafe_set s.data s.top x;
  s.top <- s.top + 1
[@@inline]

let push_n s n x =
  for _ = 1 to n do
    push s x
  done

let drop s n =
  s.top <- s.top - n;
  if s.top = 0 && s.level > 0 then begin
    s.level <- s.level - 1;
    s.data <- s.chunks.(s.level);
    s.top <- chunk
  end

let length s = (s.level * chunk) + s.top

let get s i =
  if Array.length s.chunks = 0 then s.data.(i)
  else s.chunks.(i / chunk).(i mod chunk)

let set s i x =
  if Array.length s.chunks = 0 then s.data.(i) <- x
  else s.chunks.(i / chunk).(i mod chunk) <- x
