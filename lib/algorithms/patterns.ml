open Msccl_core

let no_ch ~hop:_ = None

let all_slots _ = true

let rotate_channels ~who channels =
  if channels < 1 then invalid_arg (who ^ ": channels < 1");
  fun ~hop -> Some (hop mod channels)

let ring_reduce_scatter prog ~ranks ?(buf = Buffer_id.Input) ~offset ~count
    ?stride ?(ch = no_ch) ?(only = all_slots) () =
  let stride = Option.value stride ~default:count in
  let ranks = Array.of_list ranks in
  let r_len = Array.length ranks in
  let nth i = ranks.(i mod r_len) in
  for r = 0 to r_len - 1 do
    if only r then begin
      let index = offset + (r * stride) in
      let c =
        ref (Program.chunk prog ~rank:(nth (r + 1)) buf ~index ~count ())
      in
      for step = 1 to r_len - 1 do
        let next = nth (step + r + 1) in
        let own = Program.chunk prog ~rank:next buf ~index ~count () in
        c := Program.reduce own !c ?ch:(ch ~hop:(step - 1)) ()
      done
    end
  done

let ring_all_gather prog ~ranks ?(buf = Buffer_id.Input) ~offset ~count
    ?stride ?(ch = no_ch) ?(hop_base = 0) ?(only = all_slots) () =
  let stride = Option.value stride ~default:count in
  let ranks = Array.of_list ranks in
  let r_len = Array.length ranks in
  let nth i = ranks.(i mod r_len) in
  for r = 0 to r_len - 1 do
    if only r then begin
      let index = offset + (r * stride) in
      let c = ref (Program.chunk prog ~rank:(nth r) buf ~index ~count ()) in
      for step = 1 to r_len - 1 do
        let next = nth (step + r) in
        c :=
          Program.copy !c ~rank:next buf ~index
            ?ch:(ch ~hop:(hop_base + step - 1))
            ()
      done
    end
  done
