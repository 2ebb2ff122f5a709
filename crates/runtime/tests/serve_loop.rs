//! End-to-end contracts of the serving loop: the coalescer packs
//! same-key requests without reordering other keys, coalesced batches
//! are bit-identical to one-at-a-time dispatch, admission control
//! rejects at capacity, and the steady-state cache hit ratio stays
//! above 90%.

use std::sync::Arc;

use venom_format::{MatmulFormat, VnmConfig};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::serve::{RequestQueue, ServeRequest};
use venom_runtime::{Engine, MatmulPlan, PlanCache, PlanKey, ServeConfig, ServeError, Server};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn engine(b_cols: usize) -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(b_cols)
}

fn planned_weight(
    r: usize,
    k: usize,
    seed: u64,
    engine: &Engine,
) -> (PlanKey, Arc<dyn MatmulPlan>) {
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, VnmConfig::new(16, 2, 8));
    let pruned = mask.apply_f32(&w).to_half();
    let plan = engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(r, k), &pruned)
        .expect("V:N:M plan");
    (PlanKey::for_weight(*plan.descriptor(), &pruned), plan)
}

fn operand(k: usize, cols: usize, seed: u64) -> Matrix<Half> {
    random::activation_matrix(k, cols, seed).to_half()
}

#[test]
fn coalescer_packs_same_key_requests_and_keeps_other_keys_queued() {
    let engine = engine(8);
    let (ka, plan_a) = planned_weight(64, 64, 1, &engine);
    let (kb, plan_b) = planned_weight(64, 64, 2, &engine);
    assert_ne!(ka, kb);

    // Interleaved submission order: A A B A B.
    let queue = RequestQueue::bounded(8);
    let mut handles = Vec::new();
    for (i, key) in [ka, ka, kb, ka, kb].into_iter().enumerate() {
        let (req, handle) = ServeRequest::new(key, operand(64, 4, 10 + i as u64));
        queue
            .try_submit(req)
            .map_err(|(e, _)| e)
            .expect("capacity 8");
        handles.push(handle);
    }

    // The first pop coalesces every queued A; the B's keep their order.
    let batch_a = queue.pop_coalesced(8).expect("queue has requests");
    assert_eq!(batch_a.len(), 3);
    assert!(batch_a.iter().all(|r| r.key == ka));
    let batch_b = queue.pop_coalesced(8).expect("B requests remain");
    assert_eq!(batch_b.len(), 2);
    assert!(batch_b.iter().all(|r| r.key == kb));
    assert!(queue.is_empty());

    // One batched dispatch per key must be bit-identical to running each
    // operand alone.
    for (batch, plan) in [(&batch_a, &plan_a), (&batch_b, &plan_b)] {
        let operands: Vec<&Matrix<Half>> = batch.iter().map(|r| &r.operand).collect();
        let together = plan.run_batch(&operands);
        for (req, out) in batch.iter().zip(together) {
            assert_eq!(out, plan.run(&req.operand), "coalescing changed bits");
        }
    }
}

#[test]
fn coalescer_respects_the_max_batch_bound() {
    let engine = engine(8);
    let (key, _plan) = planned_weight(64, 64, 3, &engine);
    let queue = RequestQueue::bounded(8);
    let _handles: Vec<_> = (0..5)
        .map(|i| {
            let (req, handle) = ServeRequest::new(key, operand(64, 2, 20 + i));
            queue
                .try_submit(req)
                .map_err(|(e, _)| e)
                .expect("capacity 8");
            handle
        })
        .collect();
    assert_eq!(queue.pop_coalesced(2).unwrap().len(), 2);
    assert_eq!(queue.pop_coalesced(2).unwrap().len(), 2);
    assert_eq!(queue.pop_coalesced(2).unwrap().len(), 1);
}

#[test]
fn admission_control_rejects_at_capacity_and_after_close() {
    let engine = engine(8);
    let (key, _plan) = planned_weight(64, 64, 4, &engine);
    let queue = RequestQueue::bounded(2);
    let (r1, _h1) = ServeRequest::new(key, operand(64, 2, 30));
    let (r2, _h2) = ServeRequest::new(key, operand(64, 2, 31));
    let (r3, _h3) = ServeRequest::new(key, operand(64, 2, 32));
    assert!(queue.try_submit(r1).is_ok());
    assert!(queue.try_submit(r2).is_ok());
    let (err, rejected) = queue.try_submit(r3).unwrap_err();
    assert_eq!(err, ServeError::QueueFull { capacity: 2 });

    queue.close();
    let (err, _) = queue.try_submit(rejected).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
}

#[test]
fn server_outputs_are_bit_identical_under_concurrent_clients() {
    let engine = engine(32);
    let (key, plan) = planned_weight(128, 96, 5, &engine);
    let operands: Vec<Matrix<Half>> = (0..24).map(|i| operand(96, 4, 40 + i)).collect();
    let baseline: Vec<Matrix<f32>> = operands.iter().map(|b| plan.run(b)).collect();

    let server = Server::start(
        ServeConfig::default()
            .with_concurrency(3)
            .with_max_batch(4)
            .with_queue_capacity(8),
        Arc::new(PlanCache::new()),
    );
    let registered = Arc::clone(&plan);
    server.register(key, move || Arc::clone(&registered));

    let mut results: Vec<Option<Matrix<f32>>> = vec![None; operands.len()];
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let (server, operands) = (&server, &operands);
                s.spawn(move || {
                    (c..operands.len())
                        .step_by(4)
                        .map(|i| {
                            let h = server.submit(key, operands[i].clone()).expect("submit");
                            (i, h.wait().expect("serve"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            for (i, out) in client.join().unwrap() {
                results[i] = Some(out);
            }
        }
    });
    for (got, want) in results.iter().zip(&baseline) {
        assert_eq!(
            got.as_ref(),
            Some(want),
            "served output differs from plan.run"
        );
    }

    let stats = server.cache().stats();
    let report = server.shutdown();
    assert_eq!(report.served, 24);
    assert_eq!(report.errored, 0);
    assert!(report.batches >= 6, "24 requests / max batch 4: {report:?}");
    assert!(report.mean_batch >= 1.0);
    assert!(report.p50_ms <= report.p99_ms && report.p99_ms <= report.max_ms);
    assert_eq!(stats.builds, 1, "one registered weight, one build");
}

#[test]
fn steady_state_serving_keeps_the_cache_hit_ratio_above_90_percent() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 6, &engine);
    let server = Server::start(
        ServeConfig::default().with_concurrency(2).with_max_batch(2),
        Arc::new(PlanCache::new()),
    );
    let registered = Arc::clone(&plan);
    server
        .register_warm(key, move || Arc::clone(&registered))
        .join()
        .unwrap();

    // Sequential submit/wait: every request is its own cache lookup.
    for i in 0..30 {
        let out = server
            .submit(key, operand(64, 2, 60 + i))
            .expect("submit")
            .wait()
            .expect("serve");
        assert_eq!(out.rows(), 64);
    }
    let stats = server.cache().stats();
    assert!(
        stats.hit_ratio() >= 0.9,
        "steady-state hit ratio {:.3} below 0.9 ({stats:?})",
        stats.hit_ratio()
    );
    assert_eq!(stats.builds, 1);
    let report = server.shutdown();
    assert_eq!(report.served, 30);
}

#[test]
fn unknown_keys_and_misshapen_operands_are_answered_with_errors() {
    let engine = engine(8);
    let (key, plan) = planned_weight(64, 64, 7, &engine);
    let server = Server::start(
        ServeConfig::default().with_concurrency(1),
        Arc::new(PlanCache::new()),
    );

    // No registered builder: the request is answered, not dropped.
    let err = server
        .submit(key, operand(64, 2, 70))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownKey);

    // Registered, but the operand's K does not match the plan.
    let registered = Arc::clone(&plan);
    server.register(key, move || Arc::clone(&registered));
    let err = server
        .submit(key, operand(32, 2, 71))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::OperandShape {
            expected_k: 64,
            got: 32
        }
    );

    // Well-formed requests on the same server still serve.
    let out = server
        .submit(key, operand(64, 2, 72))
        .expect("submit")
        .wait()
        .expect("serve");
    assert_eq!(out, plan.run(&operand(64, 2, 72)));

    let report = server.shutdown();
    assert_eq!(report.served, 1);
    assert_eq!(report.errored, 2);
}
