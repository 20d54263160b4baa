type t = {
  mutable attempted : int;
  mutable ran : int;
  mutable failed : int;
  mutable raised : int;
}

let create () = { attempted = 0; ran = 0; failed = 0; raised = 0 }

let run t ~label ?(scheduled_after = 0) ~first ~n op =
  let rec go i =
    if i >= first + n then true
    else
      match op i with
      | ok ->
        t.attempted <- t.attempted + 1;
        t.ran <- t.ran + 1;
        if not ok then t.failed <- t.failed + 1;
        go (i + 1)
      | exception e ->
        let skipped = first + n - i + scheduled_after in
        Printf.printf "%s: op %d raised %s; %d scheduled ops count as failed\n%!"
          label i (Printexc.to_string e) skipped;
        t.raised <- t.raised + 1;
        t.attempted <- t.attempted + skipped;
        t.failed <- t.failed + skipped;
        false
  in
  go first
