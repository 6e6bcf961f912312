(* The treorder benchmark.

   Three seeded workloads drive the library's public functions from a
   single process through one closed-loop client (the next operation is
   issued only after the previous one returned). Every operation's output
   is checked outside the timed region; a failed check counts as a failed
   operation. End-to-end metrics come from an untraced run; per-layer
   metrics come from a traced run (--trace 1) that replays a fixed
   operation list twice -- untraced, then with the Obs NDJSON sink and the
   benchmark's own spans -- and derives layer numbers from span self time
   and counter deltas. README.md in this directory records why each
   workload exists and which end-to-end metric each layer metric should
   move. *)

module C = Netlist.Circuit
module O = Reorder.Optimizer
module Rng = Stoch.Rng

let proc = Cell.Process.default
let now = Unix.gettimeofday

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- sizes ------------------------------------------------------------ *)

type sizes = {
  cold_setups : int;  (** set-ups per untraced run *)
  cold_suite : string list;
  cold_random : int;  (** random_logic circuits in the batch *)
  cold_random_gates : int;
  eco_setups : int;  (** set-ups per untraced run *)
  eco_blocks : int;  (** disjoint random_logic blocks in the chip *)
  eco_block_gates : int;
  eco_trace_edits : int;
  mix_setups : int;  (** set-ups per untraced run *)
  mix_catalogue : string list;  (** in Zipf popularity order *)
  mix_samples : int;  (** Monte-Carlo samples per audit request *)
  mix_random_gates : int * int;  (** never-seen circuits, inclusive range *)
  mix_warmup : int;  (** never-seen circuits in the set-up warm-up *)
  mix_trace_requests : int;
  vectors : int;  (** seeded input vectors per function check *)
}

let full =
  {
    cold_setups = 151;
    cold_suite = [ "ks32"; "mult6"; "rca32"; "csel16"; "rnd_g"; "wal5" ];
    cold_random = 2;
    cold_random_gates = 1500;
    eco_setups = 3;
    eco_blocks = 40;
    eco_block_gates = 250;
    eco_trace_edits = 200;
    mix_setups = 5;
    mix_catalogue =
      [ "rca16"; "ks16"; "mult4"; "csel16"; "alu4"; "wal5"; "rnd_e"; "cla8";
        "rca32"; "ks8"; "mult6"; "rnd_c"; "csel8"; "wal4"; "rca24"; "ks32" ];
    mix_samples = 65536;
    mix_random_gates = (200, 600);
    mix_warmup = 2;
    mix_trace_requests = 150;
    vectors = 32;
  }

(* Every workload at toy size with every check on: the benchmark's own
   test (--self-test). *)
let tiny =
  {
    cold_setups = 3;
    cold_suite = [ "rca8"; "wal4" ];
    cold_random = 2;
    cold_random_gates = 120;
    eco_setups = 3;
    eco_blocks = 4;
    eco_block_gates = 40;
    eco_trace_edits = 30;
    mix_setups = 3;
    mix_catalogue = [ "rca8"; "mult4"; "alu2"; "csel8" ];
    mix_samples = 2048;
    mix_random_gates = (30, 60);
    mix_warmup = 1;
    mix_trace_requests = 24;
    vectors = 8;
  }

(* --- inputs ----------------------------------------------------------- *)

(* Time spent generating netlists, so a traced run can report how much
   of set-up is netlist generation. *)
let generate_s = ref 0.

let generated f =
  let t0 = now () in
  let c = f () in
  generate_s := !generate_s +. (now () -. t0);
  c

(* Primary-input statistics drawn once, in primary-input order, so the
   program receives fixed inputs however it enumerates them. *)
let fixed_inputs scenario ~seed circuit =
  let draw = Power.Scenario.input_stats ~rng:(Rng.create seed) scenario circuit in
  let stats = Array.make (C.net_count circuit) Stoch.Signal_stats.latched in
  List.iter (fun n -> stats.(n) <- draw n) (C.primary_inputs circuit);
  fun n -> stats.(n)

(* --- output checks ---------------------------------------------------- *)

(* [power_before] and [power_after] recomputed with an independent table;
   statistics are configuration-independent, so one analysis serves
   both. *)
let check_powers chk circuit ~inputs (r : O.report) =
  let a = Power.Analysis.run chk circuit ~inputs in
  let before = Power.Estimate.total chk circuit a in
  let after = Power.Estimate.total chk r.O.circuit a in
  check (same_float before r.O.power_before) "%s: power_before %.17g <> %.17g"
    (C.name circuit) r.O.power_before before;
  check (same_float after r.O.power_after) "%s: power_after %.17g <> %.17g"
    (C.name circuit) r.O.power_after after

let check_function ~seed ~vectors circuit rewritten =
  let rng = Rng.create seed in
  let values = Array.make (C.net_count circuit) false in
  let inputs n = values.(n) in
  for v = 1 to vectors do
    List.iter (fun n -> values.(n) <- Rng.bool rng) (C.primary_inputs circuit);
    check
      (Netlist.Eval.outputs circuit ~inputs = Netlist.Eval.outputs rewritten ~inputs)
      "%s: rewritten circuit differs on vector %d" (C.name circuit) v
  done

(* --- operations ------------------------------------------------------- *)

type outcome = {
  gates : int;  (** gates swept, each counted once per objective *)
  quality : (float * float) option;
      (** (reference, optimized) power in W: worst/best or before/after *)
  verify : unit -> unit;  (** raises [Check_failed] *)
}

type op = {
  cls : string;  (** operation class, e.g. ["flip"] *)
  call : unit -> unit -> outcome;
      (** the timed public call; the returned thunk assembles the outcome
          outside the timed region *)
}

(* A workload after set-up, ready to issue operations. *)
type instance = {
  jobs : int;
  batch : int;  (** a run stops only after a whole number of batches *)
  next : unit -> op;  (** builds the next request, untimed *)
  finish : (unit -> float * float) option;
      (** end-of-stream check, untimed; returns a (reference, optimized)
          power pair for the quality metric *)
  close : unit -> unit;
}

(* cold_batch: every job optimizes one circuit of the batch for the
   Table-3 pair from fresh power/delay tables, as every `treorder
   optimize` process does, on a pool of the CLI's default size capped at
   the core count. *)
let cold_batch sz ~seed =
  let jobs = max 1 (min (Par.Pool.default_jobs ()) (Domain.recommended_domain_count ())) in
  let suite =
    List.map (fun n -> generated (fun () -> Circuits.Suite.find n)) sz.cold_suite
  in
  (* The circuits are a fixed set, like the suite's own rnd_*; the seed
     draws their input statistics. Seeding the random circuits too made
     a round's cost differ by up to 17% from seed to seed. *)
  let random =
    List.init sz.cold_random (fun i ->
        generated (fun () ->
            Circuits.Generators.random_logic ~seed:(1009 + i) ~inputs:32
              ~gates:sz.cold_random_gates))
  in
  let batch = Array.of_list (suite @ random) in
  let pool = Par.Pool.create ~jobs () in
  let chk = Power.Model.table proc in
  let rng = Rng.create seed in
  let k = ref 0 in
  let next () =
    let circuit = batch.(!k mod Array.length batch) in
    incr k;
    (* Each job stands for a fresh `treorder optimize` process, so it
       starts on a collected heap instead of paying for the garbage of
       the job before it. *)
    Gc.full_major ();
    let inputs = fixed_inputs Power.Scenario.A ~seed:(Rng.int rng 1_000_000_007) circuit in
    let vec_seed = Rng.int rng 1_000_000_007 in
    let call () =
      let power = Power.Model.table proc and delay = Delay.Elmore.table proc in
      let best, worst = O.best_and_worst power ~delay ~pool circuit ~inputs in
      fun () ->
        {
          gates = 2 * C.gate_count circuit;
          quality = Some (worst.O.power_after, best.O.power_after);
          verify =
            (fun () ->
              check_powers chk circuit ~inputs best;
              check_powers chk circuit ~inputs worst;
              check_function ~seed:vec_seed ~vectors:sz.vectors circuit best.O.circuit;
              check_function ~seed:vec_seed ~vectors:sz.vectors circuit worst.O.circuit;
              check
                (best.O.power_after <= worst.O.power_after)
                "%s: best %.17g > worst %.17g" (C.name circuit) best.O.power_after
                worst.O.power_after);
        }
    in
    { cls = "job"; call }
  in
  { jobs; batch = Array.length batch; next; finish = None;
    close = (fun () -> Par.Pool.shutdown pool) }

(* Disjoint union of circuits: net ids of part [i] are shifted past the
   nets of the parts before it, names get a [b<i>_] prefix. *)
let union ~name parts =
  let names = ref [] and pis = ref [] and pos = ref [] and gates = ref [] in
  let offset = ref 0 in
  List.iteri
    (fun i c ->
      let off = !offset in
      for n = 0 to C.net_count c - 1 do
        names := Printf.sprintf "b%d_%s" i (C.net_name c n) :: !names
      done;
      pis := List.rev_append (List.map (( + ) off) (C.primary_inputs c)) !pis;
      pos := List.rev_append (List.map (( + ) off) (C.primary_outputs c)) !pos;
      Array.iter
        (fun (g : C.gate) ->
          gates :=
            { g with C.fanins = Array.map (( + ) off) g.C.fanins; output = g.C.output + off }
            :: !gates)
        (C.gates c);
      offset := off + C.net_count c)
    parts;
  C.create ~name
    ~net_names:(Array.of_list (List.rev !names))
    ~primary_inputs:(List.rev !pis) ~primary_outputs:(List.rev !pos)
    ~gates:(List.rev !gates)

(* eco_stream: one resident Incremental session on a block chip, edited
   sequentially: 80% configuration flips, 10% same-arity cell swaps, 10%
   primary-input statistics changes. *)
let eco_stream sz ~seed =
  let chip =
    generated (fun () ->
        union ~name:"eco_chip"
          (List.init sz.eco_blocks (fun i ->
               Circuits.Generators.random_logic ~seed:((seed * 1013) + i) ~inputs:16
                 ~gates:sz.eco_block_gates)))
  in
  let power = Power.Model.table proc and delay = Delay.Elmore.table proc in
  let inputs = fixed_inputs Power.Scenario.A ~seed chip in
  let sess = Incremental.create power ~delay chip ~inputs in
  let pis = Array.of_list (C.primary_inputs chip) in
  let rng = Rng.create (seed + 1) in
  let rec pick_gate c ok =
    let g = Rng.int rng (C.gate_count c) in
    let gate = C.gate_at c g in
    if ok gate then (g, gate) else pick_gate c ok
  in
  (* Edits come in shuffled blocks of ten -- eight flips, one swap, one
     statistics edit -- so the share of slow cone edits, which sets most of
     the cost, is the same for every seed. *)
  let classes = ref [] in
  let next () =
    if !classes = [] then begin
      let block = Array.init 10 (fun i -> if i < 8 then `Flip else if i = 8 then `Swap else `Stat) in
      Rng.shuffle rng block;
      classes := Array.to_list block
    end;
    let kind = List.hd !classes in
    classes := List.tl !classes;
    let c = Incremental.circuit sess in
    let cls, edit =
      match kind with
      | `Flip ->
        let g, gate = pick_gate c (fun g -> Cell.Gate.config_count g.C.cell > 1) in
        let k = Cell.Gate.config_count gate.C.cell in
        let config = (gate.C.config + 1 + Rng.int rng (k - 1)) mod k in
        ("flip", Incremental.Replace_gate (g, { gate with C.config }))
      | `Swap ->
        let g, gate = pick_gate c (fun g -> Cell.Gate.arity g.C.cell > 1) in
        let others =
          List.filter
            (fun cell ->
              Cell.Gate.arity cell = Cell.Gate.arity gate.C.cell
              && not (Cell.Gate.equal cell gate.C.cell))
            Cell.Gate.library
          |> Array.of_list
        in
        let cell = others.(Rng.int rng (Array.length others)) in
        ("swap", Incremental.Replace_gate (g, { gate with C.cell; config = 0 }))
      | `Stat ->
        let pi = pis.(Rng.int rng (Array.length pis)) in
        let stats =
          Stoch.Signal_stats.make ~prob:(Rng.float_range rng 0.05 0.95)
            ~density:(Rng.float_range rng 1e4 Power.Scenario.max_density)
        in
        ("stat", Incremental.Set_input_stats (pi, stats))
    in
    let call () =
      ignore (Incremental.apply sess [ edit ]);
      fun () ->
        let dirty =
          match O.session_dirty (Incremental.session sess) with
          | Some d -> Array.fold_left (fun n b -> if b then n + 1 else n) 0 d
          | None -> 0
        in
        { gates = dirty; quality = None; verify = ignore }
    in
    { cls; call }
  in
  (* Settle, then the session must be a cold run's fixed point. The
     quality pair compares the settled chip with its reference ordering
     (configuration 0 everywhere). *)
  let finish () =
    ignore (Incremental.apply sess []);
    let settled = Incremental.report sess and final = Incremental.circuit sess in
    let inputs = Incremental.input_stats sess in
    let cold =
      O.optimize power ~delay ~external_load:(Incremental.external_load sess)
        ~objective:(Incremental.objective sess) final ~inputs
    in
    check (cold.O.configs = settled.O.configs) "eco: settled configs differ from a cold run";
    check
      (same_float cold.O.power_after settled.O.power_after)
      "eco: settled power %.17g <> cold %.17g" settled.O.power_after cold.O.power_after;
    let reference = C.with_configs final (Array.make (C.gate_count final) 0) in
    let a = Power.Analysis.run power reference ~inputs in
    (Power.Estimate.total power reference a, settled.O.power_after)
  in
  { jobs = 1; batch = 1; next; finish = Some finish; close = ignore }

(* job_mix: a long-lived server with one shared power table answering a
   seeded request stream sequentially. *)
type request = Memo_optimize of int | Audit of int | Fresh of int * int

let job_mix sz ~seed =
  let power = Power.Model.table proc and delay = Delay.Elmore.table proc in
  let catalogue =
    Array.of_list
      (List.map (fun n -> generated (fun () -> Circuits.Suite.find n)) sz.mix_catalogue)
  in
  let latched = Array.map (fixed_inputs Power.Scenario.B ~seed:0) catalogue in
  (* Zipf (s = 1) popularity over the catalogue, most popular first: the
     catalogue index at quantile [q] in [0, 1). *)
  let weights = Array.init (Array.length catalogue) (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let zipf q =
    let u = q *. total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if u < acc || i = Array.length weights - 1 then i else go (i + 1) acc
    in
    go 0 0.
  in
  (* Fractional parts of multiples of the golden ratio: the [j]-th of them
     for any [j], and every run of consecutive ones, spread evenly over
     [0, 1). *)
  let golden j = Float.rem (float_of_int j *. 0.6180339887498949) 1. in
  (* [n] draws spread evenly over the popularity distribution from offset
     [r] (systematic sampling). *)
  let zipf_draws r n = Array.init n (fun k -> zipf ((float_of_int k +. r) /. float_of_int n)) in
  let lo, hi = sz.mix_random_gates in
  (* The [k]-th never-seen circuit of a run: generator seed and size are
     fixed by [k], the size the [k]-th golden-ratio point of the size range,
     so any three in a row lie at least a fifth of it apart. A circuit's
     sweep cost per gate varies threefold with its structure, and with
     seeded circuits that set most of the spread of the tail and the
     throughput from seed to seed. The workload seed draws the input
     statistics. *)
  let fresh k = Fresh (20011 + k, lo + int_of_float (golden k *. float_of_int (hi - lo + 1))) in
  (* Requests come in shuffled blocks of 20 -- 13 memoized optimizes, 4
     audits, 3 never-seen circuits. The [j]-th block draws the catalogue
     from the [j]-th golden-ratio offset, so the class mix, the popularity
     spread and the never-seen circuits, which set most of the cost and
     the tail, are the same in every run; the seed shuffles each block and
     draws every circuit's input statistics. *)
  let stream rng =
    let queue = Queue.create () and blocks = ref 0 in
    fun () ->
      if Queue.is_empty queue then begin
        let j = !blocks in
        incr blocks;
        let block =
          Array.concat
            (* Audits take offsets seven blocks ahead, so a block's two
               draws do not share their offset. *)
            [ Array.map (fun i -> Memo_optimize i) (zipf_draws (golden j) 13);
              Array.map (fun i -> Audit i) (zipf_draws (golden (j + 7)) 4);
              Array.init 3 (fun i -> fresh ((3 * j) + i)) ]
        in
        Rng.shuffle rng block;
        Array.iter (fun r -> Queue.add r queue) block
      end;
      Queue.pop queue
  in
  let first_seen = Hashtbl.create 64 in
  let repeat key digest =
    match Hashtbl.find_opt first_seen key with
    | None -> Hashtbl.add first_seen key digest
    | Some d -> check (String.equal d digest) "mix: repeated request %s differs from its first occurrence" key
  in
  let report_digest (r : O.report) =
    Digest.string
      (Marshal.to_string
         (r.O.configs, Int64.bits_of_float r.O.power_before,
          Int64.bits_of_float r.O.power_after, r.O.configurations_explored)
         [])
  in
  let chk = Power.Model.table proc in
  let request rng req =
    match req with
    | Memo_optimize i ->
        let circuit = catalogue.(i) and inputs = latched.(i) in
        let call () =
          let r =
            O.optimize power ~delay ~objective:O.Min_power ~memo:(Reorder.Memo.create ())
              circuit ~inputs
          in
          fun () ->
            { gates = C.gate_count circuit;
              quality = Some (r.O.power_before, r.O.power_after);
              verify =
                (fun () ->
                  check_powers chk circuit ~inputs r;
                  check_function ~seed:i ~vectors:sz.vectors circuit r.O.circuit;
                  repeat ("optimize --memo " ^ C.name circuit) (report_digest r)) }
        in
        { cls = "optimize_memo"; call }
    | Audit i ->
        let circuit = catalogue.(i) and inputs = latched.(i) in
        let call () =
          let a =
            Audit.run power ~backend:Power.Backend.Mc ~samples:sz.mix_samples
              ~rng:(Rng.create 42) ~inputs ~horizon:1e-3 circuit
          in
          fun () ->
            { gates = 0; quality = None;
              verify =
                (fun () ->
                  check
                    (Array.length a.Audit.net_rows = C.net_count circuit)
                    "mix: audit of %s misses nets" (C.name circuit);
                  repeat ("audit " ^ C.name circuit) (Digest.string (Audit.to_json a))) }
        in
        { cls = "audit"; call }
    | Fresh (s, gates) ->
        let circuit =
          Circuits.Generators.random_logic ~seed:s ~inputs:(16 + (s mod 17)) ~gates
        in
        let inputs = fixed_inputs Power.Scenario.A ~seed:(Rng.int rng 1_000_000_007) circuit in
        let vec_seed = Rng.int rng 1_000_000_007 in
        let call () =
          let r = O.optimize power ~delay ~objective:O.Min_power circuit ~inputs in
          fun () ->
            { gates = C.gate_count circuit;
              quality = Some (r.O.power_before, r.O.power_after);
              verify =
                (fun () ->
                  check_powers chk circuit ~inputs r;
                  check_function ~seed:vec_seed ~vectors:sz.vectors circuit r.O.circuit) }
        in
        { cls = "optimize"; call }
  in
  (* Warm-up with a different seed, the server having been up for a while:
     every catalogue circuit once, then never-seen circuits of the middle
     size from generator seeds of their own, so set-up costs the same for
     every seed. *)
  let warm = Rng.create (seed + 7919) in
  Array.iteri (fun i _ -> ignore ((request warm (Memo_optimize i)).call () ())) catalogue;
  for k = 1 to sz.mix_warmup do
    ignore ((request warm (Fresh (10007 + k, (lo + hi) / 2))).call () ())
  done;
  let rng = Rng.create seed in
  let next = stream rng in
  { jobs = 1; batch = 1; next = (fun () -> request rng (next ())); finish = None;
    close = ignore }

let workloads =
  [ ("cold_batch", cold_batch); ("eco_stream", eco_stream); ("job_mix", job_mix) ]

(* --- measurement ------------------------------------------------------ *)

type sample = {
  cls : string;
  pos : int;  (** position in the batch *)
  dt : float;  (** seconds *)
  swept : int;  (** gates swept *)
}

type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
  mutable samples : sample list;  (** successful ops, newest first *)
  mutable busy : float;  (** seconds inside timed calls *)
  mutable q_ref : float;
  mutable q_opt : float;
  deltas : (string, int) Hashtbl.t;  (** Obs counters, summed over timed calls *)
  mutable minor_words : float;
  mutable major_words : float;
}

let failure p msg =
  p.failed <- p.failed + 1;
  p.errors <- msg :: p.errors

let describe = function
  | Check_failed m -> m
  | Incremental.Edit_error m -> "Edit_error: " ^ m
  | e -> Printexc.to_string e

let add_deltas p before after =
  (* Counters registered during the call are absent from [before]. *)
  let base = Hashtbl.create 64 in
  Array.iter (fun (k, v) -> Hashtbl.replace base k v) before;
  Array.iter
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base k) in
      if d <> 0 then
        Hashtbl.replace p.deltas k (d + Option.value ~default:0 (Hashtbl.find_opt p.deltas k)))
    after

(* Closed loop: issue operations until [budget] seconds of timed calls or
   [max_ops] operations, whichever first, then to the end of the batch. A
   time-bound run covers at least [min_rounds] batches. *)
let min_rounds = 5

let run_pass inst ~traced ~budget ~max_ops =
  let p =
    { attempted = 0; failed = 0; errors = []; samples = []; busy = 0.;
      q_ref = 0.; q_opt = 0.; deltas = Hashtbl.create 64; minor_words = 0.;
      major_words = 0. }
  in
  let spanned name f = if traced then Obs.span name f else f () in
  while
    (p.attempted < max_ops
    && (p.busy < budget || (budget < infinity && p.attempted < min_rounds * inst.batch)))
    || p.attempted mod inst.batch <> 0
  do
    let op = inst.next () in
    let c0 = Obs.read_counters () and g0 = Gc.quick_stat () in
    let t0 = now () in
    let r = try Ok (spanned ("bench." ^ op.cls) op.call) with e -> Error e in
    let dt = now () -. t0 in
    let g1 = Gc.quick_stat () in
    add_deltas p c0 (Obs.read_counters ());
    p.minor_words <- p.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    p.major_words <- p.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
    let pos = p.attempted mod inst.batch in
    p.attempted <- p.attempted + 1;
    p.busy <- p.busy +. dt;
    match r with
    | Error e -> failure p (describe e)
    | Ok k -> (
        match spanned "bench.check" (fun () -> let o = k () in o.verify (); o) with
        | o ->
            p.samples <- { cls = op.cls; pos; dt; swept = o.gates } :: p.samples;
            Option.iter
              (fun (r, o) ->
                p.q_ref <- p.q_ref +. r;
                p.q_opt <- p.q_opt +. o)
              o.quality
        | exception e -> failure p (describe e))
  done;
  p

let run_finish inst p =
  Option.iter
    (fun f ->
      p.attempted <- p.attempted + 1;
      match f () with
      | r, o ->
          p.q_ref <- p.q_ref +. r;
          p.q_opt <- p.q_opt +. o
      | exception e -> failure p (describe e))
    inst.finish

(* Each set-up starts on a collected heap, as in a fresh process, so the
   garbage of the set-up before it does not land in its time. *)
let setup_timed w sz ~seed =
  Gc.full_major ();
  let g0 = !generate_s and t0 = now () in
  let inst = w sz ~seed in
  (inst, now () -. t0, !generate_s -. g0)

(* --- statistics ------------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile of a sorted list. *)
let percentile q xs =
  match xs with
  | [] -> 0.
  | _ ->
      let n = List.length xs in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      List.nth xs (min n rank - 1)

let median xs = percentile 0.5 (sorted xs)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* --- reporting -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.json_string name)
          (Obs.json_float value) (Obs.json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* Workload-scoped names of the end-to-end metrics. On cold_batch the
   tail metric is the slowest circuit's median (see [end_to_end]). *)
let alias workload name =
  let prefix, op, ops, tail =
    match workload with
    | "cold_batch" -> ("cold", "job", "jobs", "slowest")
    | "eco_stream" -> ("eco", "apply", "edits", "p95")
    | _ -> ("mix", "req", "req", "p95")
  in
  let scoped =
    match name with
    | "op_p50_ms" -> Some (op ^ "_p50_ms")
    | "op_p95_ms" -> Some (op ^ "_" ^ tail ^ "_ms")
    | "ops_per_s" -> Some (ops ^ "_per_s")
    | "gates_per_s" | "reduction_pct" -> Some name
    | _ -> None
  in
  Option.map (fun s -> prefix ^ "." ^ s) scoped

let print_errors p =
  List.iteri
    (fun i e -> if i < 10 then Printf.eprintf "FAILED: %s\n" e)
    (List.rev p.errors)

let machine_facts inst =
  Printf.printf "machine: nproc %d, OCaml %s, jobs %d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version inst.jobs

let reduction p = if p.q_ref > 0. then 100. *. (p.q_ref -. p.q_opt) /. p.q_ref else 0.

(* --- untraced run: end-to-end metrics --------------------------------- *)

(* Latency samples, timed seconds and gates swept behind the end-to-end
   metrics. A batched workload repeats identical rounds (every job starts
   from fresh tables), so each batch position contributes the median of
   its rounds, which keeps one slow round from moving the result; a
   stream contributes every operation. *)
let timing inst p =
  if inst.batch = 1 then
    ( sorted (List.map (fun s -> s.dt) p.samples),
      p.busy,
      List.fold_left (fun n s -> n + s.swept) 0 p.samples )
  else
    let positions =
      List.init inst.batch (fun pos -> List.filter (fun s -> s.pos = pos) p.samples)
      |> List.filter (( <> ) [])
    in
    let medians = List.map (fun ss -> median (List.map (fun s -> s.dt) ss)) positions in
    ( sorted medians,
      List.fold_left ( +. ) 0. medians,
      List.fold_left (fun n ss -> n + (List.hd ss).swept) 0 positions )

(* Set-up is repeated a fixed number of times per workload, about six
   seconds' worth, and setup_s is the median; the last instance serves the
   timed run. A count fixed in advance, rather than one that fills a time
   budget, leaves the timed run the same heap whatever the host's speed. *)
let setup_count sz = function
  | "cold_batch" -> sz.cold_setups
  | "eco_stream" -> sz.eco_setups
  | _ -> sz.mix_setups

let end_to_end ~workload w sz ~seed ~seconds =
  let rec go k times =
    let inst, s, _ = setup_timed w sz ~seed in
    if k <= 1 then (inst, s :: times)
    else (
      inst.close ();
      go (k - 1) (s :: times))
  in
  let inst, setup_times = go (setup_count sz workload) [] in
  Gc.compact ();
  machine_facts inst;
  Obs.reset ();
  let p = run_pass inst ~traced:false ~budget:seconds ~max_ops:max_int in
  inst.close ();
  run_finish inst p;
  let lat, seconds, swept = timing inst p in
  let n = List.length lat in
  (* A stream reports its p95, which has at least 10 samples beyond it
     from 200 samples on. A batch has one latency per circuit, too few
     for a tail: op_p95_ms is then the slowest circuit's median. *)
  let tail = if inst.batch > 1 then List.nth lat (n - 1) else percentile 0.95 lat in
  let metrics =
    [
      m "setup_s" "s" (median setup_times);
      m "op_p50_ms" "ms" (1e3 *. percentile 0.5 lat);
      m "op_p95_ms" "ms" (1e3 *. tail);
      m "ops_per_s" "1/s" (float_of_int n /. seconds);
      m "gates_per_s" "1/s" (float_of_int swept /. seconds);
      m "reduction_pct" "%" (reduction p);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]
  in
  Printf.printf "%s: %d operations in %.2f s of timed calls, %d set-ups; " workload
    p.attempted p.busy (List.length setup_times);
  if inst.batch > 1 then
    Printf.printf "%d latency samples (per-circuit medians over %d rounds); op_p95_ms is the slowest\n"
      n (p.attempted / inst.batch)
  else
    Printf.printf "%d latency samples, %d beyond p95\n" n
      (n - int_of_float (Float.ceil (0.95 *. float_of_int n)));
  List.iter
    (fun cls ->
      let ts = List.filter_map (fun s -> if s.cls = cls then Some s.dt else None) p.samples in
      Printf.printf "  class %-14s n %5d  p50 %9.3f ms  mean %9.3f ms\n" cls (List.length ts)
        (1e3 *. median ts)
        (1e3 *. List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts)))
    (List.sort_uniq compare (List.map (fun s -> s.cls) p.samples));
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-14s %-22s %14.4f %s\n" name
        (Option.value ~default:"" (alias workload name)) value unit_)
    metrics;
  print_errors p;
  (p, metrics)

(* --- traced run: per-layer metrics ------------------------------------ *)

(* Counts that must repeat exactly for a fixed seed. Model builds and
   forks and BDD work depend on scheduling when jobs > 1 (every domain
   builds models in its own fork of the table) and are left out;
   par.tasks_run counts chunks, which do not. *)
let deterministic =
  [ "optimizer.configs_explored"; "optimizer.gates_visited"; "optimizer.memo_hits";
    "optimizer.memo_misses"; "incremental.dirty_gates"; "incremental.dirty_nets";
    "incremental.cutoffs"; "incremental.ledger_entries_patched"; "mc.words_evaluated";
    "power.gate_powers"; "power.node_evals"; "par.tasks_run" ]

let scheduling_dependent =
  [ "power.model_build"; "power.model_forks"; "bdd.node_alloc"; "bdd.memo_miss" ]

(* Span aggregates by name over the trace's span tree, leaving out the
   benchmark's own output checks. *)
let rec fold_spans f acc (t : Trace.tree) =
  if t.Trace.name = "bench.check" then acc
  else List.fold_left (fold_spans f) (f acc t) t.Trace.children

let span_sum tree name field =
  fold_spans (fun acc t -> if t.Trace.name = name then acc +. field t else acc) 0. tree

let audit_self tree =
  fold_spans
    (fun acc (t : Trace.tree) ->
      if t.Trace.name <> "audit.run" then acc
      else
        List.fold_left
          (fun acc (c : Trace.tree) -> if c.Trace.name = "mc.run" then acc -. c.Trace.total else acc)
          (acc +. t.Trace.total) t.Trace.children)
    0. tree

let ratio a b = if b > 0. then a /. b else 0.

(* Traced over untraced time of the same operations: the median of the
   per-operation ratios, so one slow operation in either pass does not
   set it; the ratio of totals when a failure leaves the passes
   unaligned. *)
let overhead a b =
  if List.compare_lengths a.samples b.samples = 0 then
    median (List.map2 (fun (sa : sample) (sb : sample) -> ratio sb.dt sa.dt) a.samples b.samples)
  else ratio b.busy a.busy

let class_p50 p cls =
  1e3 *. median (List.filter_map (fun s -> if s.cls = cls then Some s.dt else None) p.samples)

let trace_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

let trace_ops sz = function
  | "cold_batch" -> List.length sz.cold_suite + sz.cold_random
  | "eco_stream" -> sz.eco_trace_edits
  | _ -> sz.mix_trace_requests

let per_layer ~workload w sz ~seed =
  let ops = trace_ops sz workload in
  (* Pass A, untraced: the reference time and counts. *)
  let inst, _, _ = setup_timed w sz ~seed in
  machine_facts inst;
  Obs.reset ();
  let a = run_pass inst ~traced:false ~budget:infinity ~max_ops:ops in
  inst.close ();
  run_finish inst a;
  (* Pass B: the same operations from a fresh set-up, traced. *)
  let inst, _, gen_s = setup_timed w sz ~seed in
  mkdir_p trace_dir;
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.ndjson" workload seed) in
  Obs.reset ();
  Obs.set_sink (Obs.file_sink path);
  let b = run_pass inst ~traced:true ~budget:infinity ~max_ops:ops in
  inst.close ();
  let snap = Obs.snapshot () in
  Obs.close_sink ();
  run_finish inst b;
  (* Counts must repeat exactly between the two passes. *)
  let count p k = Option.value ~default:0 (Hashtbl.find_opt p.deltas k) in
  List.iter
    (fun k ->
      if count a k <> count b k then
        failure b (Printf.sprintf "count %s differs between passes: %d vs %d" k (count a k) (count b k)))
    deterministic;
  if not (same_float (reduction a) (reduction b)) then
    failure b "reduction_pct differs between passes";
  Printf.printf "counts (seed %d, %d ops): %s\n" seed ops
    (String.concat " "
       (List.map (fun k -> Printf.sprintf "%s=%d" k (count b k)) deterministic));
  Printf.printf "scheduling-dependent when jobs > 1: %s\n"
    (String.concat " "
       (List.map (fun k -> Printf.sprintf "%s=%d" k (count b k)) scheduling_dependent));
  let tree =
    match Trace.load path with
    | Ok events -> Trace.span_tree events
    | Error e ->
        failure b ("trace: " ^ e);
        Trace.span_tree []
  in
  let total name = span_sum tree name (fun t -> t.Trace.total) in
  let c k = float_of_int (count b k) in
  let sweep_s = span_sum tree "optimize.gate" (fun t -> t.Trace.self) in
  let mc_s = total "mc.run" in
  let par_ns prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix k then acc +. float_of_int v else acc)
      0. snap.Obs.counters
  in
  let busy_ns = par_ns "par.domain_busy_ns." and idle_ns = par_ns "par.domain_idle_ns." in
  let imbalance =
    match List.assoc_opt "par.imbalance" snap.Obs.distributions with
    | Some d -> d.Obs.max
    | None -> 0.
  in
  let hits = c "optimizer.memo_hits" and misses = c "optimizer.memo_misses" in
  let nops = float_of_int b.attempted in
  (* Each layer metric with the end-to-end metric it should move, on
     which workload. *)
  let cold = "gates_per_s on cold_batch" in
  let metrics =
    [
      ("power.model_build", "count", cold ^ "; ~0 elsewhere after set-up", c "power.model_build");
      ("power.model_forks", "count", cold ^ "; ~0 elsewhere after set-up", c "power.model_forks");
      ("bdd.node_alloc", "count", cold ^ "; ~0 elsewhere after set-up", c "bdd.node_alloc");
      ("bdd.memo_miss", "count", cold ^ "; ~0 elsewhere after set-up", c "bdd.memo_miss");
      ("power.node_evals", "count", cold ^ "; op_p95_ms on eco_stream", c "power.node_evals");
      ("power.gate_powers", "count", cold ^ "; op_p95_ms on eco_stream", c "power.gate_powers");
      ("power.analysis_s", "s", cold ^ "; op_p95_ms on eco_stream", total "power.analysis");
      ("power.estimate_s", "s", cold ^ "; op_p95_ms on eco_stream", total "power.estimate");
      ( "optimizer.configs_explored", "count", cold ^ "; op_p50_ms on job_mix",
        c "optimizer.configs_explored" );
      ( "optimizer.gates_visited", "count", cold ^ "; op_p50_ms on job_mix",
        c "optimizer.gates_visited" );
      ("optimizer.sweep_s", "s", cold ^ "; op_p50_ms on job_mix", sweep_s);
      ( "optimizer.configs_per_s", "1/s", cold ^ "; op_p50_ms on job_mix",
        ratio (c "optimizer.configs_explored") sweep_s );
      ("optimizer.memo_hits", "count", "op_p50_ms on job_mix; zero on cold_batch", hits);
      ("optimizer.memo_misses", "count", "op_p50_ms on job_mix; zero on cold_batch", misses);
      ( "memo.hit_rate_pct", "%", "op_p50_ms on job_mix; zero on cold_batch",
        100. *. ratio hits (hits +. misses) );
      ("par.tasks_run", "count", cold ^ "; zero elsewhere", c "par.tasks_run");
      ("par.busy_ratio", "ratio", cold ^ "; zero elsewhere", ratio busy_ns (busy_ns +. idle_ns));
      ("par.imbalance", "ratio", cold ^ "; zero elsewhere", imbalance);
      ("incremental.flip_p50_ms", "ms", "op_p50_ms on eco_stream", class_p50 b "flip");
      ("incremental.swap_p50_ms", "ms", "op_p95_ms on eco_stream", class_p50 b "swap");
      ("incremental.stat_p50_ms", "ms", "op_p95_ms on eco_stream", class_p50 b "stat");
      ("incremental.dirty_gates", "count", "op_p95_ms on eco_stream", c "incremental.dirty_gates");
      ("incremental.dirty_nets", "count", "op_p95_ms on eco_stream", c "incremental.dirty_nets");
      ("incremental.cutoffs", "count", "op_p95_ms on eco_stream", c "incremental.cutoffs");
      ("attrib.ledger_s", "s", "op_p50_ms on eco_stream", total "incremental.ledger");
      ( "incremental.ledger_entries_patched", "count", "op_p50_ms on eco_stream",
        c "incremental.ledger_entries_patched" );
      ("mc.words_evaluated", "count", "op_p95_ms on job_mix; zero elsewhere", c "mc.words_evaluated");
      ("mc.run_s", "s", "op_p95_ms on job_mix; zero elsewhere", mc_s);
      ( "mc.gate_evals_per_s", "1/s", "op_p95_ms on job_mix; zero elsewhere",
        ratio (64. *. c "mc.words_evaluated") mc_s );
      ("audit.self_s", "s", "op_p95_ms on job_mix; zero elsewhere", audit_self tree);
      ("netlist.generate_s", "s", "setup_s on every workload", gen_s);
      ("gc.minor_words", "words/op", "every throughput metric", ratio b.minor_words nops);
      ("gc.major_words", "words/op", "every throughput metric", ratio b.major_words nops);
      ("trace_overhead_pct", "%", "none: cost of tracing itself", 100. *. (overhead a b -. 1.));
    ]
    |> List.map (fun (name, unit_, moves, value) ->
           Printf.printf "  %-36s %16.6g %-9s -> %s\n" name value unit_ moves;
           m name unit_ value)
  in
  Printf.printf "trace: %s\n" path;
  print_errors b;
  let merged =
    { b with attempted = a.attempted + b.attempted; failed = a.failed + b.failed;
      errors = b.errors @ a.errors }
  in
  (merged, metrics)

(* --- entry points ----------------------------------------------------- *)

let run_workload ~workload ~sizes ~seed ~seconds ~trace =
  let w = List.assoc workload workloads in
  let p, metrics =
    if trace then per_layer ~workload w sizes ~seed
    else end_to_end ~workload w sizes ~seed ~seconds
  in
  (p.failed = 0, p.attempted, p.failed, metrics)

let self_test () =
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      let result trace = run_workload ~workload ~sizes:tiny ~seed:3 ~seconds:0.2 ~trace in
      let counts (_, _, _, metrics) =
        List.filter (fun x -> List.mem x.name deterministic) metrics
      in
      let c0, _, _, _ = result false in
      let ((c1, _, _, _) as r1) = result true in
      let ((c2, _, _, _) as r2) = result true in
      let repeat = counts r1 = counts r2 in
      if not repeat then Printf.eprintf "FAILED: %s counts differ across runs\n" workload;
      if not (c0 && c1 && c2 && repeat) then ok := false)
    workloads;
  prerr_endline (if !ok then "self-test: ok" else "self-test: FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold_batch | eco_stream | job_mix | all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Set self, " every workload at toy size with every check on");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  let names =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else (
      prerr_endline ("unknown workload " ^ !workload);
      exit 2)
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  List.iter
    (fun workload ->
      let correct, attempted, failed, metrics =
        run_workload ~workload ~sizes:full ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      in
      print_endline (json_result ~correct ~attempted ~failed metrics))
    names
