let period = 1_000_000_000L

type t = { mutable next : int64 }

let create ~now = { next = Int64.add now period }

let due t ~now =
  Int64.compare now t.next >= 0
  && begin
    t.next <- Int64.add now period;
    true
  end
