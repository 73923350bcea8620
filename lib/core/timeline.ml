type event = {
  name : string;
  cat : string;
  pid : int;
  tid : int;
  ts : float;
  dur : float;
}

type t = { mutable events : event list }

let create () = { events = [] }

let add t ~name ~cat ~pid ~tid ~ts ~dur =
  t.events <- { name; cat; pid; tid; ts; dur } :: t.events

let num_events t = List.length t.events

let to_chrome_json t =
  let event e =
    Json.(
      Obj
        [ ("name", String e.name); ("cat", String e.cat); ("ph", String "X");
          ("pid", Int e.pid); ("tid", Int e.tid); ("ts", Float (e.ts *. 1e6));
          ("dur", Float (e.dur *. 1e6)) ])
  in
  Json.(
    Obj
      [ ("traceEvents", List (List.rev_map event t.events));
        ("displayTimeUnit", String "ms") ])
