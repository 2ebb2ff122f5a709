//! Table 2 — accuracy after second-order pruning (proxy experiment).
//!
//! The paper prunes BERT-base's encoder weights with the V:N:M-aware
//! second-order method plus the structure-decay schedule and reports
//! SQuAD v1.1 F1. Neither BERT nor SQuAD is available offline, so this is
//! the documented substitution (EXPERIMENTS.md, "Table 2 (proxy)"): a
//! trained two-layer MLP on synthetic Gaussian clusters, whose hidden
//! weight matrix (256 x 64) stands in for the encoder weight. The reproducible quantity is the
//! *shape* of the table: near-zero loss at 75% (2:8), small loss at 87.5%
//! (2:16), and the ordering `1:N:M >= 64:N:M >= 128:N:M` with `vw_8` in
//! between — all driven by format restrictiveness, not by the model.
//!
//! Paper reference (F1, dense = 88.43):
//!   75%  (2:8):  1:N:M 88.61 | 64:N:M 88.47 | 128:N:M 87.94 | vw_8 88.55
//!   87.5%(2:16): 1:N:M 87.73 | 64:N:M 86.50 | 128:N:M 85.01 | vw_8 86.90

use venom_dnn::train::{data::Dataset, gaussian_clusters_split, Mlp};
use venom_format::{SparsityMask, VnmConfig};
use venom_pruner::scheduler::{DecayStep, StructureDecayScheduler};
use venom_pruner::{magnitude, prune_nm_second_order, prune_vnm_second_order, SecondOrderOptions};
use venom_tensor::Matrix;

const DIM: usize = 64;
const HIDDEN: usize = 256;
const CLASSES: usize = 10;
/// Low separation makes the task hard enough that capacity loss shows up
/// as accuracy loss (a saturated task would hide the policies' ordering).
const SEPARATION: f32 = 0.55;
const FINETUNE_EPOCHS: usize = 250;
const LR: f32 = 0.4;

fn apply_mask(mlp: &mut Mlp, mask: &SparsityMask, weights: &Matrix<f32>) {
    for j in 0..HIDDEN {
        for d in 0..DIM {
            mlp.w1.set(
                j,
                d,
                if mask.get(j, d) {
                    weights.get(j, d)
                } else {
                    0.0
                },
            );
        }
    }
}

/// Runs the gradual second-order schedule for one V:N:M policy.
fn run_vnm_policy(dense: &Mlp, train: &Dataset, test: &Dataset, target: VnmConfig) -> f64 {
    let mut mlp = dense.clone();
    let sched = StructureDecayScheduler::halving(target);
    let opts = SecondOrderOptions::default();
    for step in sched.steps() {
        let grads = mlp.per_sample_w1_grads(train);
        let (mask, updated) = match step {
            DecayStep::Nm(nm) => prune_nm_second_order(&mlp.w1, &grads, *nm, &opts),
            DecayStep::Vnm(vnm) => prune_vnm_second_order(&mlp.w1, &grads, *vnm, &opts),
        };
        apply_mask(&mut mlp, &mask, &updated);
        mlp.train(train, FINETUNE_EPOCHS, LR, Some(&mask));
    }
    mlp.accuracy(test)
}

/// Gradual magnitude vector-wise pruning (`vw_8`) with fine-tuning.
fn run_vw8_policy(dense: &Mlp, train: &Dataset, test: &Dataset, sparsity: f64) -> f64 {
    let mut mlp = dense.clone();
    for s in [0.5, sparsity] {
        if s > sparsity {
            continue;
        }
        let mask = magnitude::prune_vectorwise(&mlp.w1, 8, s);
        let snapshot = mlp.w1.clone();
        apply_mask(&mut mlp, &mask, &snapshot);
        mlp.train(train, FINETUNE_EPOCHS, LR, Some(&mask));
    }
    mlp.accuracy(test)
}

fn main() {
    let (train, test) = gaussian_clusters_split(80, 40, DIM, CLASSES, SEPARATION, 101);

    let mut dense = Mlp::new(DIM, HIDDEN, CLASSES, 7);
    dense.train(&train, 600, LR, None);
    let dense_acc = dense.accuracy(&test);

    println!(
        "=== Table 2 (proxy): accuracy after 2nd-order pruning; dense = {:.4} ===",
        dense_acc
    );
    println!("(paper reference: dense F1 = 88.43 on SQuAD v1.1 with BERT-base)");
    println!("sparsity,1:N:M,64:N:M,128:N:M,vw_8");

    for (m, label, sparsity) in [(8usize, "75% (2:8)", 0.75), (16, "87.5% (2:16)", 0.875)] {
        let a1 = run_vnm_policy(&dense, &train, &test, VnmConfig::new(1, 2, m));
        let a64 = run_vnm_policy(&dense, &train, &test, VnmConfig::new(64, 2, m));
        let a128 = run_vnm_policy(&dense, &train, &test, VnmConfig::new(128, 2, m));
        let avw = run_vw8_policy(&dense, &train, &test, sparsity);
        println!("{label},{a1:.4},{a64:.4},{a128:.4},{avw:.4}");
        println!(
            "  recovery vs dense: 1:N:M {:.1}% | 64:N:M {:.1}% | 128:N:M {:.1}% | vw_8 {:.1}%",
            100.0 * a1 / dense_acc,
            100.0 * a64 / dense_acc,
            100.0 * a128 / dense_acc,
            100.0 * avw / dense_acc
        );
    }
    println!(
        "\nExpected shape (paper): minimal loss at 2:8; small loss at 2:16 with\n\
         1:N:M recovering ~99%, 64:N:M/vw_8 ~98%, 128:N:M ~96% of dense accuracy."
    );
}
