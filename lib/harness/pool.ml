type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable pending : int; (* tasks submitted but not yet finished *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Workers never see exceptions: [map] wraps every closure so that its
   result (or exception) lands in the caller's result slot. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.tasks && not t.stop do
    Condition.wait t.work_available t.lock
  done;
  if Queue.is_empty t.tasks then Mutex.unlock t.lock (* stop requested *)
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.lock;
    task ();
    Mutex.lock t.lock;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.lock;
    worker_loop t
  end

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      tasks = Queue.create ();
      pending = 0;
      stop = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.workers = [] -> List.map f xs
  | xs ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n None in
    Mutex.lock t.lock;
    t.pending <- t.pending + n;
    Array.iteri
      (fun i x ->
        Queue.push
          (fun () ->
            let r =
              try Ok (f x)
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some r)
          t.tasks)
      input;
    Condition.broadcast t.work_available;
    while t.pending > 0 do
      Condition.wait t.work_done t.lock
    done;
    Mutex.unlock t.lock;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
