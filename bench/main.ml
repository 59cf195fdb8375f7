(* Benchmark harness.

   With no mode it regenerates every table and figure of the paper's
   evaluation (the same rows/series the paper reports; see EXPERIMENTS.md
   for the paper-vs-measured comparison), then times the compiler
   policies and the simulation engines with Bechamel.  Four modes each
   measure one subsystem and write a JSON artifact: estimator, kernels,
   drift and serve-load.

   Run with: dune exec bench/main.exe [-- --no-perf]
   Modes, flags, defaults and gates: dune exec bench/main.exe -- --help
   (or -- MODE --help).  A mode exits 1 when its gate fails, 2 on a
   semantic error (unreadable or malformed baseline, --days out of
   range, invalid estimator configuration) and 124 on a flag-syntax
   error. *)

module Registry = Vqc_experiments.Registry
module Context = Vqc_experiments.Context
module Compiler = Vqc_mapper.Compiler
module Monte_carlo = Vqc_sim.Monte_carlo
module Mc_oracle = Vqc_testkit.Mc_oracle
module Reliability = Vqc_sim.Reliability
module Catalog = Vqc_workloads.Catalog
module Rng = Vqc_rng.Rng
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Router = Vqc_mapper.Router
module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Protocol = Vqc_service.Protocol
module Policies = Vqc_service.Policies

(* ---- Bechamel timing ------------------------------------------------ *)

let compile_test ctx name policy =
  let circuit = (Catalog.find name).Catalog.circuit in
  let device = ctx.Context.q20 in
  Bechamel.Test.make
    ~name:(Printf.sprintf "compile/%s/%s" name policy.Compiler.label)
    (Bechamel.Staged.stage (fun () ->
         ignore (Compiler.compile device policy circuit)))

let monte_carlo_test ctx trials =
  let circuit = (Catalog.find "bv-16").Catalog.circuit in
  let device = ctx.Context.q20 in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  Bechamel.Test.make
    ~name:(Printf.sprintf "monte-carlo/bv-16/%d-trials" trials)
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Monte_carlo.run ~trials (Rng.make 1) device
              compiled.Compiler.physical)))

(* Serial vs parallel Monte-Carlo on the same workload and seed: the
   estimates are bit-identical by construction, so the ratio of these
   two rows is pure engine speedup. *)
let monte_carlo_parallel_test ctx ~jobs trials =
  let circuit = (Catalog.find "bv-16").Catalog.circuit in
  let device = ctx.Context.q20 in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  Bechamel.Test.make
    ~name:(Printf.sprintf "monte-carlo-parallel/bv-16/%d-trials/%d-jobs"
             trials jobs)
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Monte_carlo.run ~jobs ~trials (Rng.make 1) device
              compiled.Compiler.physical)))

(* ---- Serving: cold vs warm-cache throughput ------------------------ *)

let serve_requests =
  List.map
    (fun workload ->
      {
        Protocol.id = None;
        source = Protocol.Workload workload;
        policy = Policies.default_label;
        epoch = None;
        estimate = false;
      })
    [ "bv-16"; "qft-12"; "alu" ]

let serve_batch service =
  List.iter
    (fun request ->
      match Service.submit service request with
      | Ok () -> ()
      | Error _ -> failwith "bench: unexpected rejection")
    serve_requests;
  ignore (Service.flush service)

let serve_service ~cache_enabled =
  let epochs =
    Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
      (History.generate ~days:2 ~seed:2 ~coupling:Topologies.ibm_q20_tokyo 20)
  in
  Service.create
    ~config:{ Service.default_config with Service.cache_enabled }
    epochs

(* Cold: the cache is bypassed, every batch compiles all three plans.
   Warm: the cache is primed once, every batch is pure lookup — the
   ratio of these two rows is the amortization the plan cache buys a
   recompile-per-calibration serving regime. *)
let serve_cold_test () =
  let service = serve_service ~cache_enabled:false in
  Bechamel.Test.make ~name:"serve/cold/3-reqs"
    (Bechamel.Staged.stage (fun () -> serve_batch service))

let serve_warm_test () =
  let service = serve_service ~cache_enabled:true in
  serve_batch service;
  Bechamel.Test.make ~name:"serve/warm-cache/3-reqs"
    (Bechamel.Staged.stage (fun () -> serve_batch service))

let analytic_test ctx =
  let circuit = (Catalog.find "qft-14").Catalog.circuit in
  let device = ctx.Context.q20 in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  Bechamel.Test.make ~name:"analytic-pst/qft-14"
    (Bechamel.Staged.stage (fun () ->
         ignore (Reliability.pst device compiled.Compiler.physical)))

let run_timings () =
  let open Bechamel in
  let ctx = Context.default in
  let tests =
    Test.make_grouped ~name:"vqc"
      [
        compile_test ctx "bv-16" Compiler.baseline;
        compile_test ctx "bv-16" Compiler.vqm;
        compile_test ctx "bv-16" Compiler.vqa_vqm;
        compile_test ctx "qft-12" Compiler.baseline;
        compile_test ctx "qft-12" Compiler.vqa_vqm;
        compile_test ctx "alu" (Compiler.native ~seed:1);
        monte_carlo_test ctx 10_000;
        analytic_test ctx;
      ]
  in
  let parallel_tests =
    Test.make_grouped ~name:"monte-carlo-parallel"
      (List.sort_uniq compare [ 1; 2; 4; Domain.recommended_domain_count () ]
      |> List.map (fun jobs -> monte_carlo_parallel_test ctx ~jobs 200_000))
  in
  let serve_tests =
    Test.make_grouped ~name:"serve" [ serve_cold_test (); serve_warm_test () ]
  in
  let tests =
    Test.make_grouped ~name:"all" [ tests; parallel_tests; serve_tests ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  print_newline ();
  print_endline "Timing (Bechamel, monotonic clock)";
  print_endline "==================================";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanoseconds =
          match Analyze.OLS.estimates ols with
          | Some (estimate :: _) -> estimate
          | Some [] | None -> Float.nan
        in
        (name, nanoseconds) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, nanoseconds) ->
      Printf.printf "%-44s %12.0f ns/run  (%.3f ms)\n" name nanoseconds
        (nanoseconds /. 1e6))
    rows

(* ---- Estimator: fixed vs adaptive trials-to-target ----------------- *)

module Estimator = Vqc_sim.Estimator
module Json = Vqc_obs.Json
module Json_io = Vqc_service.Json_io

let wall_clock f =
  let started = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. started)

let write_artifact out json =
  Out_channel.with_open_text out (fun channel ->
      Out_channel.output_string channel (Json.to_string json);
      Out_channel.output_char channel '\n');
  Printf.printf "wrote %s\n%!" out

type estimator_row = {
  workload : string;
  fixed_pst : float;
  fixed_seconds : float;
  adaptive : Estimator.estimate;
  adaptive_seconds : float;
}

let median values =
  match List.sort compare values with
  | [] -> Float.nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let estimator_row ctx ~config ~jobs (entry : Catalog.entry) =
  let device = ctx.Context.q20 in
  let compiled = Compiler.compile device Compiler.vqa_vqm entry.Catalog.circuit in
  let physical = compiled.Compiler.physical in
  (* same seed on both sides: the adaptive run walks a prefix of the
     fixed run's chunk stream, so the comparison is trial-for-trial *)
  let fixed, fixed_seconds =
    wall_clock (fun () ->
        Monte_carlo.run ~jobs ~trials:config.Estimator.max_trials
          (Rng.make 1) device physical)
  in
  let adaptive, adaptive_seconds =
    wall_clock (fun () ->
        Monte_carlo.run_adaptive ~jobs ~config (Rng.make 1) device physical)
  in
  {
    workload = entry.Catalog.name;
    fixed_pst = fixed.Monte_carlo.pst;
    fixed_seconds;
    adaptive;
    adaptive_seconds;
  }

let trials_speedup row =
  float_of_int row.adaptive.Estimator.budget
  /. float_of_int row.adaptive.Estimator.trials

let estimator_json ~config rows =
  let row_json row =
    let e = row.adaptive in
    Json.Obj
      [
        ("workload", Json.String row.workload);
        ("fixed_trials", Json.Int e.Estimator.budget);
        ("fixed_pst", Json.Float row.fixed_pst);
        ("fixed_seconds", Json.Float row.fixed_seconds);
        ("adaptive_trials", Json.Int e.Estimator.trials);
        ("adaptive_pst", Json.Float e.Estimator.mean);
        ("adaptive_seconds", Json.Float row.adaptive_seconds);
        ("half_width", Json.Float (Estimator.half_width e));
        ("stop", Json.String (Estimator.stop_reason_to_string e.Estimator.stop));
        ("trials_saved", Json.Int (Estimator.trials_saved e));
        ("trials_speedup", Json.Float (trials_speedup row));
        ( "seconds_speedup",
          Json.Float (row.fixed_seconds /. row.adaptive_seconds) );
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "estimator");
      ("precision", Json.Float config.Estimator.precision);
      ("confidence", Json.Float config.Estimator.confidence);
      ("max_trials", Json.Int config.Estimator.max_trials);
      ("workloads", Json.List (List.map row_json rows));
      ( "median_trials_speedup",
        Json.Float (median (List.map trials_speedup rows)) );
      ( "min_trials_speedup",
        Json.Float
          (List.fold_left Float.min infinity (List.map trials_speedup rows))
      );
    ]

let run_estimator_bench precision max_trials jobs out =
  let config =
    { Estimator.default_config with Estimator.precision; max_trials }
  in
  match Estimator.validate_config config with
  | Error message ->
    prerr_endline ("bench estimator: " ^ message);
    2
  | Ok config ->
    let ctx = Context.default in
    Printf.printf
      "Estimator bench: fixed %d trials vs adaptive (precision %g at %g%%), \
       VQA+VQM on Q20\n\n"
      config.Estimator.max_trials config.Estimator.precision
      (100.0 *. config.Estimator.confidence);
    let rows = List.map (estimator_row ctx ~config ~jobs) Catalog.table1 in
    List.iter
      (fun row ->
        let e = row.adaptive in
        Printf.printf
          "%-8s fixed %.4f (%d trials, %.2fs)  adaptive %.4f +/- %.1e (%d \
           trials, %.2fs)  %5.1fx fewer trials [%s]\n"
          row.workload row.fixed_pst e.Estimator.budget row.fixed_seconds
          e.Estimator.mean (Estimator.half_width e) e.Estimator.trials
          row.adaptive_seconds (trials_speedup row)
          (Estimator.stop_reason_to_string e.Estimator.stop))
      rows;
    let median_speedup = median (List.map trials_speedup rows) in
    Printf.printf "\nmedian trials-to-target reduction: %.1fx\n" median_speedup;
    write_artifact out (estimator_json ~config rows);
    (* contract: adaptivity never costs trials — it stops at or before
       the budget the fixed path always spends *)
    let regressions =
      List.filter
        (fun row ->
          row.adaptive.Estimator.trials > row.adaptive.Estimator.budget)
        rows
    in
    List.iter
      (fun row ->
        Printf.eprintf
          "bench estimator: REGRESSION %s: adaptive used %d trials > fixed %d\n"
          row.workload row.adaptive.Estimator.trials
          row.adaptive.Estimator.budget)
      regressions;
    if regressions <> [] then 1 else 0

(* ---- Hot-path kernels: compile and simulate throughput ------------- *)

let matrix_policies () = List.map (fun e -> e.Policies.policy) Policies.all

(* One full pass over the Table-1 catalog under every service policy —
   the workload `bench kernels` times.  [memo]
   selects the optimized pipeline (layer memo + pruned SABRE + cached
   cost models) or the retained reference pipeline; both emit
   byte-identical plans (test/test_mapper_equiv.ml holds them to it). *)
let compile_matrix ~memo device policies =
  List.iter
    (fun (entry : Catalog.entry) ->
      List.iter
        (fun policy ->
          ignore (Compiler.compile ~memo device policy entry.Catalog.circuit))
        policies)
    Catalog.table1

(* Repeat a deterministic run until at least [min_seconds] of wall time
   has accumulated, so fast configurations are not timed off a single
   sub-millisecond sample. *)
let sustained_rate ~units ~min_seconds run =
  run ();
  (* warm-up: table construction, allocation, code paths *)
  let started = Unix.gettimeofday () in
  let repetitions = ref 0 in
  let elapsed = ref 0.0 in
  while !repetitions < 1 || !elapsed < min_seconds do
    run ();
    incr repetitions;
    elapsed := Unix.gettimeofday () -. started
  done;
  float_of_int (units * !repetitions) /. !elapsed

type mc_row = {
  mc_engine : string;
  mc_jobs : int;
  trials_per_s : float;
}

(* Read before measuring, so a missing or malformed baseline fails at
   once rather than after the whole measurement. *)
let read_baseline = function
  | None -> Ok None
  | Some file -> (
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error message ->
      Error (Printf.sprintf "cannot read baseline %s: %s" file message)
    | text -> (
      match Json_io.parse text with
      | Ok baseline -> Ok (Some (file, baseline))
      | Error message ->
        Error (Printf.sprintf "malformed baseline %s: %s" file message)))

(* The >10% regression rule: a measured speedup may drift with machine
   load, but dropping below 90% of the committed floor means the
   optimized path lost real ground on the reference path running in the
   same process on the same hardware. *)
let check_against_baseline ~file baseline measured =
  let failures =
    List.filter_map
      (fun (key, value) ->
        match Option.bind (Json_io.member key baseline) Json_io.float_value with
        | None -> Some (Printf.sprintf "baseline %s lacks a %S number" file key)
        | Some floor ->
          if value < floor *. 0.9 then
            Some
              (Printf.sprintf
                 "%s regressed: measured %.2fx < 90%% of committed floor %.2fx"
                 key value floor)
          else None)
      measured
  in
  if failures = [] then begin
    Printf.printf "baseline check against %s: ok\n" file;
    0
  end
  else begin
    List.iter (Printf.eprintf "bench kernels: REGRESSION %s\n") failures;
    1
  end

let run_kernels_bench trials out check =
  match read_baseline check with
  | Error message ->
    Printf.eprintf "bench kernels: %s\n" message;
    2
  | Ok baseline ->
    let ctx = Context.default in
    let device = ctx.Context.q20 in
    let policies = matrix_policies () in
    let plans = List.length Catalog.table1 * List.length policies in
    let plans_f = float_of_int plans in
    Printf.printf "Kernel bench: %d plans (Table-1 x %d policies) on Q20\n\n%!"
      plans (List.length policies);
    (* compile: reference (memo-free) vs optimized, cold and warm memo *)
    Router.memo_clear ();
    let (), reference_seconds =
      wall_clock (fun () -> compile_matrix ~memo:false device policies)
    in
    Router.memo_clear ();
    let (), cold_seconds =
      wall_clock (fun () -> compile_matrix ~memo:true device policies)
    in
    let (), warm_seconds =
      wall_clock (fun () -> compile_matrix ~memo:true device policies)
    in
    let reference_rate = plans_f /. reference_seconds in
    let cold_rate = plans_f /. cold_seconds in
    let warm_rate = plans_f /. warm_seconds in
    let cold_speedup = reference_seconds /. cold_seconds in
    let warm_speedup = reference_seconds /. warm_seconds in
    Printf.printf "compile reference: %6.2f plans/s  (%.2fs)\n" reference_rate
      reference_seconds;
    Printf.printf "compile cold memo: %6.2f plans/s  (%.2fs)  %.2fx\n"
      cold_rate cold_seconds cold_speedup;
    Printf.printf "compile warm memo: %6.2f plans/s  (%.2fs)  %.2fx\n\n%!"
      warm_rate warm_seconds warm_speedup;
    (* simulate: flat Bigarray kernel vs the test kit's list-based
       oracle.  The oracle runs at jobs 1 only: its own throughput drops
       under several domains, so a multi-domain ratio would measure the
       oracle, not the kernel. *)
    let circuit = (Catalog.find "bv-16").Catalog.circuit in
    let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
    let physical = compiled.Compiler.physical in
    let mc_row mc_engine mc_jobs run =
      let trials_per_s =
        sustained_rate ~units:trials ~min_seconds:0.5 (fun () ->
            ignore (run ~jobs:mc_jobs (Rng.make 1)))
      in
      { mc_engine; mc_jobs; trials_per_s }
    in
    let flat ~jobs rng = Monte_carlo.run ~jobs ~trials rng device physical in
    let flat_1 = mc_row "flat" 1 flat in
    let reference_1 =
      mc_row "reference" 1 (fun ~jobs rng ->
          Mc_oracle.run ~jobs ~trials rng device physical)
    in
    let mc_rows = [ flat_1; reference_1; mc_row "flat" 4 flat ] in
    let mc_speedup = flat_1.trials_per_s /. reference_1.trials_per_s in
    List.iter
      (fun row ->
        Printf.printf "mc %-9s jobs=%d: %12.0f trials/s\n" row.mc_engine
          row.mc_jobs row.trials_per_s)
      mc_rows;
    Printf.printf "mc flat speedup: %.2fx (jobs=1)\n\n%!" mc_speedup;
    let json =
      Json.Obj
        [
          ("bench", Json.String "kernels");
          ( "compile",
            Json.Obj
              [
                ("catalog", Json.String "table1");
                ("policies", Json.Int (List.length policies));
                ("plans", Json.Int plans);
                ("reference_plans_per_s", Json.Float reference_rate);
                ("cold_plans_per_s", Json.Float cold_rate);
                ("warm_plans_per_s", Json.Float warm_rate);
                ("compile_cold_speedup", Json.Float cold_speedup);
                ("compile_warm_speedup", Json.Float warm_speedup);
              ] );
          ( "monte_carlo",
            Json.Obj
              [
                ("workload", Json.String "bv-16");
                ("trials", Json.Int trials);
                ( "rows",
                  Json.List
                    (List.map
                       (fun row ->
                         Json.Obj
                           [
                             ("engine", Json.String row.mc_engine);
                             ("jobs", Json.Int row.mc_jobs);
                             ("trials_per_s", Json.Float row.trials_per_s);
                           ])
                       mc_rows) );
                ("mc_flat_speedup", Json.Float mc_speedup);
              ] );
        ]
    in
    write_artifact out json;
    match baseline with
    | None -> 0
    | Some (file, baseline) ->
      check_against_baseline ~file baseline
        [
          ("compile_cold_speedup", cold_speedup);
          ("compile_warm_speedup", warm_speedup);
          ("mc_flat_speedup", mc_speedup);
        ]

(* ---- Calibration drift: selective retention over the history ------- *)

module Device = Vqc_device.Device
module Staleness = Vqc_drift.Staleness
module Retention = Vqc_drift.Retention
module Recompiler = Vqc_drift.Recompiler
module Layout = Vqc_mapper.Layout

(* One live plan in the simulated cache: the day it was compiled (its
   provenance device) plus the plan itself. *)
type drift_entry = {
  de_workload : string;
  de_policy : Policies.entry;
  de_compile_day : int;
  de_plan : Compiler.compiled;
}

type drift_day = {
  dd_day : int;
  dd_retained : int;
  dd_recompiled : int;
  dd_mean_loss : float;  (** mean PST given up by the retained plans *)
  dd_max_loss : float;
  dd_recompile_seconds : float;  (** nd: wall time actually spent *)
  dd_saved_seconds : float;  (** nd: wall time retention avoided *)
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let drift_compile ~jobs device entries =
  let tasks =
    List.map
      (fun (workload, (policy : Policies.entry)) ->
        {
          Recompiler.id = workload ^ "/" ^ policy.Policies.label;
          device;
          policy = policy.Policies.policy;
          source = (Catalog.find workload).Catalog.circuit;
        })
      entries
  in
  let outcomes = Recompiler.run ~jobs tasks in
  let seconds =
    List.fold_left (fun acc o -> acc +. o.Recompiler.seconds) 0.0 outcomes
  in
  ( List.map2
      (fun (workload, policy) outcome ->
        match outcome.Recompiler.plan with
        | Ok plan -> (workload, policy, plan)
        | Error message ->
          failwith
            (Printf.sprintf "bench drift: %s/%s failed to compile: %s"
               workload policy.Policies.label message))
      entries outcomes,
    seconds )

let run_drift_bench days threshold jobs out =
  let ctx = Context.default in
  let history_days = History.days ctx.Context.history in
  if days < 2 then begin
    Printf.eprintf "bench drift: --days: need an integer >= 2, got %d\n" days;
    2
  end
  else if days > history_days then begin
    Printf.eprintf "bench drift: --days %d exceeds the %d-day history\n"
      days history_days;
    2
  end
  else begin
    let policy = { Retention.threshold } in
    let device_on day =
      Device.with_calibration ctx.Context.q20 (History.day ctx.Context.history day)
    in
    let matrix =
      List.concat_map
        (fun (entry : Catalog.entry) ->
          List.map (fun p -> (entry.Catalog.name, p)) Policies.all)
        Catalog.all
    in
    let total = List.length matrix in
    Printf.printf
      "Drift bench: %d plans (catalog x policies), %d days, threshold %g, \
       jobs %d\n\n%!"
      total days threshold jobs;
    let seeded, _ = drift_compile ~jobs (device_on 0) matrix in
    let cache =
      ref
        (List.map
           (fun (w, p, plan) ->
             { de_workload = w; de_policy = p; de_compile_day = 0; de_plan = plan })
           seeded)
    in
    let rows = ref [] in
    for day = 1 to days - 1 do
      let after = device_on day in
      let keep entry =
        let physical = entry.de_plan.Compiler.physical in
        if Retention.wholesale policy then false
        else begin
          let score =
            Staleness.score ~before:(device_on entry.de_compile_day)
              ~after physical
          in
          match Retention.decide policy score with
          | Retention.Recompile -> false
          | Retention.Retain ->
            not
              (Vqc_diag.Diagnostic.has_errors
                 (Retention.reverify ~device:after
                    ~source:(Catalog.find entry.de_workload).Catalog.circuit
                    ~physical
                    ~initial:(Layout.assignment entry.de_plan.Compiler.initial)
                    ~final:(Layout.assignment entry.de_plan.Compiler.final)
                    ~swaps:
                      entry.de_plan.Compiler.stats.Router.swaps_inserted))
        end
      in
      let retained, demoted = List.partition keep !cache in
      let key e = (e.de_workload, e.de_policy) in
      let fresh_demoted, recompile_seconds =
        drift_compile ~jobs after (List.map key demoted)
      in
      (* price what retention kept: compile the retained plans fresh
         too (time we would have spent; PST we might have gained) *)
      let fresh_retained, saved_seconds =
        drift_compile ~jobs after (List.map key retained)
      in
      let losses =
        List.map2
          (fun entry (_, _, fresh) ->
            1.
            -. Reliability.pst after entry.de_plan.Compiler.physical
               /. Reliability.pst after fresh.Compiler.physical)
          retained fresh_retained
      in
      rows :=
        {
          dd_day = day;
          dd_retained = List.length retained;
          dd_recompiled = List.length demoted;
          dd_mean_loss = mean losses;
          dd_max_loss = List.fold_left Float.max 0. losses;
          dd_recompile_seconds = recompile_seconds;
          dd_saved_seconds = saved_seconds;
        }
        :: !rows;
      cache :=
        retained
        @ List.map
            (fun (w, p, plan) ->
              { de_workload = w; de_policy = p; de_compile_day = day; de_plan = plan })
            fresh_demoted
    done;
    let rows = List.rev !rows in
    List.iter
      (fun row ->
        Printf.printf
          "day %2d: retained %3d/%d (%.2f)  recompiled %3d  mean loss \
           %.4f  max loss %.4f  (%.2fs spent, %.2fs saved)\n%!"
          row.dd_day row.dd_retained total
          (float_of_int row.dd_retained /. float_of_int total)
          row.dd_recompiled row.dd_mean_loss row.dd_max_loss
          row.dd_recompile_seconds row.dd_saved_seconds)
      rows;
    let sum f = List.fold_left (fun acc row -> acc +. f row) 0. rows in
    let mean_fraction =
      mean
        (List.map
           (fun r -> float_of_int r.dd_retained /. float_of_int total)
           rows)
    in
    let mean_loss = mean (List.map (fun r -> r.dd_mean_loss) rows) in
    Printf.printf
      "\nmean retained fraction: %.3f  mean PST loss (retained): %.4f  \
       recompile time saved: %.2fs of %.2fs\n"
      mean_fraction mean_loss
      (sum (fun r -> r.dd_saved_seconds))
      (sum (fun r -> r.dd_saved_seconds +. r.dd_recompile_seconds));
    let json =
      Json.Obj
        [
          ("bench", Json.String "drift");
          ("threshold", Json.Float threshold);
          ("days", Json.Int days);
          ("plans", Json.Int total);
          ( "rows",
            Json.List
              (List.map
                 (fun row ->
                   Json.Obj
                     [
                       ("day", Json.Int row.dd_day);
                       ("retained", Json.Int row.dd_retained);
                       ("recompiled", Json.Int row.dd_recompiled);
                       ( "retained_fraction",
                         Json.Float
                           (float_of_int row.dd_retained /. float_of_int total)
                       );
                       ("mean_pst_loss", Json.Float row.dd_mean_loss);
                       ("max_pst_loss", Json.Float row.dd_max_loss);
                       ( "nd",
                         Json.Obj
                           [
                             ( "recompile_seconds",
                               Json.Float row.dd_recompile_seconds );
                             ("saved_seconds", Json.Float row.dd_saved_seconds);
                           ] );
                     ])
                 rows) );
          ("mean_retained_fraction", Json.Float mean_fraction);
          ("mean_pst_loss", Json.Float mean_loss);
          ( "nd",
            Json.Obj
              [
                ( "total_recompile_seconds",
                  Json.Float (sum (fun r -> r.dd_recompile_seconds)) );
                ( "total_saved_seconds",
                  Json.Float (sum (fun r -> r.dd_saved_seconds)) );
              ] );
        ]
    in
    write_artifact out json;
    0
  end

(* ---- Serving under concurrency: bench serve-load ------------------- *)

module Server = Vqc_serve_net.Server
module Session = Vqc_serve_net.Session
module Load = Vqc_testkit.Load
module Metrics = Vqc_obs.Metrics

(* Nearest-rank percentile over an ascending-sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

(* Small circuits keep each compile cheap, so the bench exercises the
   serving machinery (sockets, sessions, striped caches, the shared
   store) rather than the mapper.  Clients start at different offsets
   of the same rotation: every workload is compiled somewhere early,
   then every other client's first touch is a shared-store hit and
   every repeat a private-cache hit. *)
let serve_load_workloads = [| "bv-3"; "bv-4"; "GHZ-3"; "TriSwap" |]

let serve_load_stream ~requests index =
  List.init requests (fun j ->
      let workload =
        serve_load_workloads.((index + j) mod Array.length serve_load_workloads)
      in
      Json.to_string
        (Json.Obj
           [ ("id", Json.Int (j + 1)); ("workload", Json.String workload) ]))

let bench_counter name = Metrics.counter_value (Metrics.counter name)

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

type serve_round = {
  sr_clients : int;
  sr_requests : int;
  sr_seconds : float;
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_req_per_s : float;
  sr_l1_hit_rate : float;
  sr_store_hit_rate : float;
  sr_failures : string list;
}

let run_serve_round ~jobs ~requests_per_client clients =
  let epochs =
    Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
      (History.generate ~days:2 ~seed:2 ~coupling:Topologies.ibm_q20_tokyo 20)
  in
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.clients_max = clients + 8;
          session = { Session.default_config with Session.batch = 1 };
          service = { Service.default_config with Service.jobs };
        }
      epochs
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let counters () =
        ( bench_counter "service.cache.hits",
          bench_counter "service.cache.misses",
          bench_counter "serve.store.hits",
          bench_counter "serve.store.misses" )
      in
      let l1_hits0, l1_misses0, store_hits0, store_misses0 = counters () in
      let results, seconds =
        wall_clock (fun () ->
            Load.run ~port:(Server.port server) ~clients ~window:8
              ~requests:(serve_load_stream ~requests:requests_per_client)
              ())
      in
      let l1_hits1, l1_misses1, store_hits1, store_misses1 = counters () in
      let failures =
        Array.to_list results
        |> List.filter_map (function Error e -> Some e | Ok _ -> None)
      in
      let latencies =
        Array.to_list results
        |> List.concat_map (function
             | Ok { Load.latencies; _ } -> Array.to_list latencies
             | Error _ -> [])
        |> Array.of_list
      in
      Array.sort compare latencies;
      let answered = Array.length latencies in
      {
        sr_clients = clients;
        sr_requests = clients * requests_per_client;
        sr_seconds = seconds;
        sr_p50_ms = 1e3 *. percentile latencies 50.0;
        sr_p99_ms = 1e3 *. percentile latencies 99.0;
        sr_req_per_s =
          (if seconds > 0.0 then float_of_int answered /. seconds else 0.0);
        sr_l1_hit_rate =
          hit_rate (l1_hits1 - l1_hits0) (l1_misses1 - l1_misses0);
        sr_store_hit_rate =
          hit_rate (store_hits1 - store_hits0) (store_misses1 - store_misses0);
        sr_failures = failures;
      })

let serve_round_json round =
  Json.Obj
    [
      ("clients", Json.Int round.sr_clients);
      ("requests", Json.Int round.sr_requests);
      ( "nd",
        Json.Obj
          [
            ("seconds", Json.Float round.sr_seconds);
            ("p50_ms", Json.Float round.sr_p50_ms);
            ("p99_ms", Json.Float round.sr_p99_ms);
            ("req_per_s", Json.Float round.sr_req_per_s);
            ("l1_hit_rate", Json.Float round.sr_l1_hit_rate);
            ("store_hit_rate", Json.Float round.sr_store_hit_rate);
          ] );
    ]

let run_serve_bench clients requests_per_client jobs out check_scaling =
  Printf.printf
    "Serve-load bench: %d requests/client over %s, jobs=%d\n\n"
    requests_per_client
    (String.concat "+" (Array.to_list serve_load_workloads))
    jobs;
  let rounds =
    List.map
      (fun count ->
        let round = run_serve_round ~jobs ~requests_per_client count in
        Printf.printf
          "%3d clients  %5d reqs  %8.1f req/s  p50 %7.2f ms  p99 %7.2f ms  L1 \
           %4.0f%%  store %4.0f%%\n\
           %!"
          round.sr_clients round.sr_requests round.sr_req_per_s
          round.sr_p50_ms round.sr_p99_ms
          (100.0 *. round.sr_l1_hit_rate)
          (100.0 *. round.sr_store_hit_rate);
        round)
      clients
  in
  let failures = List.concat_map (fun r -> r.sr_failures) rounds in
  List.iter
    (fun failure ->
      Printf.eprintf "bench serve-load: client failed: %s\n" failure)
    failures;
  write_artifact out
    (Json.Obj
       [
         ("bench", Json.String "serve-load");
         ("jobs", Json.Int jobs);
         ("requests_per_client", Json.Int requests_per_client);
         ("rounds", Json.List (List.map serve_round_json rounds));
       ]);
  if failures <> [] then 1
  else if not check_scaling then 0
  else begin
    (* the whole point of concurrent serving: more clients, more
       served — the shared pool and store must scale, not serialize.
       Compare by client count, whatever order --clients gave. *)
    let by_clients =
      List.stable_sort (fun a b -> compare a.sr_clients b.sr_clients) rounds
    in
    match (by_clients, List.rev by_clients) with
    | fewest :: _, most :: _ when fewest.sr_clients < most.sr_clients ->
      if most.sr_req_per_s > fewest.sr_req_per_s then 0
      else begin
        Printf.eprintf
          "bench serve-load: REGRESSION: %d clients served %.1f req/s, not \
           above the %.1f req/s of %d client(s)\n"
          most.sr_clients most.sr_req_per_s fewest.sr_req_per_s
          fewest.sr_clients;
        1
      end
    | _ -> 0
  end

(* ---- Command line --------------------------------------------------- *)

open Cmdliner

let positive =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s)),
      Format.pp_print_int )

let jobs_arg default =
  let doc = "Worker domains." in
  Arg.(value & opt positive default & info [ "jobs" ] ~docv:"N" ~doc)

let out_arg default =
  let doc = "Where to write the JSON artifact." in
  Arg.(value & opt string default & info [ "out" ] ~docv:"FILE" ~doc)

let exits =
  Cmd.Exit.info 1 ~doc:"when the mode's gate fails (see its description)."
  :: Cmd.Exit.info 2
       ~doc:
         "on a semantic error: an unreadable or malformed baseline, --days \
          out of range, or an invalid estimator configuration."
  :: Cmd.Exit.defaults

let mode name ~doc ~description term =
  let man = [ `S Manpage.s_description; `P description ] in
  Cmd.v (Cmd.info name ~doc ~man ~exits) term

let estimator_cmd =
  let precision =
    let doc = "Target half-width of the adaptive estimate." in
    Arg.(value & opt float 1e-3 & info [ "precision" ] ~docv:"P" ~doc)
  in
  let max_trials =
    let doc = "Trials of the fixed run, and the adaptive run's ceiling." in
    Arg.(value & opt int 1_000_000 & info [ "max-trials" ] ~docv:"N" ~doc)
  in
  mode "estimator"
    ~doc:"fixed vs adaptive Monte-Carlo trials-to-target"
    ~description:
      "Estimates the PST of every Table-1 workload compiled under VQA+VQM \
       on Q20 twice from the same seed: with the paper's fixed trial count \
       and adaptively to the target precision. Exits 1 if adaptive mode \
       ever needs more trials than fixed mode: the estimator's cost \
       ceiling is part of its contract."
    Term.(
      const run_estimator_bench $ precision $ max_trials $ jobs_arg 1
      $ out_arg "BENCH_estimator.json")

let kernels_cmd =
  let trials =
    let doc = "Monte-Carlo trials per timed run." in
    Arg.(value & opt positive 400_000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let check =
    let doc = "Gate the speedups against the floors in $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "check" ] ~docv:"BASELINE" ~doc)
  in
  mode "kernels"
    ~doc:"optimized hot paths vs the retained reference paths"
    ~description:
      "Compiles the Table-1 catalog under every service policy with the \
       memo-free reference pipeline, then the optimized one with a cold \
       and a warm memo, and times the flat Monte-Carlo kernel against the \
       list-based oracle at 1 and 4 jobs; records the in-run speedup \
       ratios. With --check it exits 1 when any speedup falls below 90% of \
       the baseline's floor (ratios, not absolutes, so the gate holds \
       across machines of different speeds) and 2, before measuring, when \
       the baseline cannot be read or is not valid JSON."
    Term.(
      const run_kernels_bench $ trials $ out_arg "BENCH_kernels.json" $ check)

let drift_cmd =
  let days =
    let doc = "Replay the first $(docv) days of the history (at least 2)." in
    Arg.(value & opt int 52 & info [ "days" ] ~docv:"N" ~doc)
  in
  let threshold =
    let doc =
      "Retain a plan while its predicted relative PST loss is at most \
       $(docv); 0 recompiles every plan."
    in
    Arg.(
      value
      & opt float Retention.default.Retention.threshold
      & info [ "threshold" ] ~docv:"LOSS" ~doc)
  in
  mode "drift"
    ~doc:"selective plan retention over the calibration history"
    ~description:
      "Replays the calibration history through the Vqc_drift retention \
       pipeline over the full catalog x policy matrix and records per-day \
       retained fraction, the PST given up by retaining instead of \
       recompiling, and the recompile wall time saved (timings under \
       \"nd\"; everything else byte-identical for a fixed \
       history/threshold/jobs). Exits 2 when --days is below 2 or beyond \
       the history."
    Term.(
      const run_drift_bench $ days $ threshold $ jobs_arg 1
      $ out_arg "BENCH_drift.json")

let serve_load_cmd =
  let clients =
    let doc = "Client counts, one round each." in
    let counts = Arg.list positive in
    let parse s =
      match Arg.conv_parser counts s with
      | Ok [] -> Error (`Msg "empty list")
      | parsed -> parsed
    in
    let counts = Arg.conv (parse, Arg.conv_printer counts) in
    Arg.(
      value & opt counts [ 1; 8; 64 ] & info [ "clients" ] ~docv:"N,..." ~doc)
  in
  let requests =
    let doc = "Requests each client sends." in
    Arg.(
      value & opt positive 32
      & info [ "requests-per-client" ] ~docv:"N" ~doc)
  in
  let check_scaling =
    let doc = "Exit 1 unless the most clients out-serve the fewest." in
    Arg.(value & flag & info [ "check-scaling" ] ~doc)
  in
  mode "serve-load"
    ~doc:"the TCP front end under concurrent clients"
    ~description:
      "For each client count, starts an in-process Vqc_serve_net server \
       and replays pipelined NDJSON streams from that many concurrent \
       clients; records p50/p99 latency, requests/s and cache hit rates \
       (all run-varying, so under \"nd\"). Exits 1 when a client fails, \
       and with --check-scaling when the highest client count does not \
       out-serve the lowest: the shared pool and compile store must buy \
       throughput, not just survive."
    Term.(
      const run_serve_bench $ clients $ requests $ jobs_arg 4
      $ out_arg "BENCH_serve.json" $ check_scaling)

let regenerate no_perf =
  Registry.run_all Format.std_formatter Context.default;
  Format.pp_print_flush Format.std_formatter ();
  if not no_perf then run_timings ();
  0

let () =
  let no_perf =
    let doc = "Skip the Bechamel timings." in
    Arg.(value & flag & info [ "no-perf" ] ~doc)
  in
  let doc = "regenerate the paper's evaluation and measure the system" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "With no mode, prints every table and figure of the paper's \
         evaluation (see EXPERIMENTS.md), then times the compiler policies \
         and the simulation engines with Bechamel. Each mode measures one \
         subsystem and writes a JSON artifact.";
    ]
  in
  exit
    (Cmd.eval' ~catch:false
       (Cmd.group
          ~default:Term.(const regenerate $ no_perf)
          (Cmd.info "bench" ~doc ~man ~exits)
          [ estimator_cmd; kernels_cmd; drift_cmd; serve_load_cmd ]))
