//! Component ablation on a single space (the Figure 6 experiment,
//! interactively): disable NASPipe's scheduler, predictor, or layer
//! mirroring one at a time and measure the damage.
//!
//! ```text
//! cargo run --release --example ablation [NLP.c1|NLP.c2|NLP.c3|CV.c1|CV.c2|CV.c3|NLP.c0]
//! ```

use naspipe_core::config::{PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::{PipelineError, SimSpec};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::{SearchSpace, SpaceId};

fn parse_space(name: &str) -> Option<SpaceId> {
    SpaceId::ALL.into_iter().find(|id| id.to_string() == name)
}

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "NLP.c2".to_string());
    let Some(id) = parse_space(&arg) else {
        eprintln!("unknown space '{arg}'; expected one of NLP.c0..c3, CV.c1..c3");
        std::process::exit(2);
    };
    let space = SearchSpace::from_id(id);
    let n = 96u64;
    let subnets = UniformSampler::new(&space, 5).take_subnets(n as usize);

    let variants: [(&str, SyncPolicy); 4] = [
        ("NASPipe (full)", SyncPolicy::naspipe()),
        (
            "w/o scheduler",
            SyncPolicy::Csp {
                scheduler: false,
                predictor: true,
                mirroring: true,
            },
        ),
        (
            "w/o predictor",
            SyncPolicy::Csp {
                scheduler: true,
                predictor: false,
                mirroring: true,
            },
        ),
        (
            "w/o mirroring",
            SyncPolicy::Csp {
                scheduler: true,
                predictor: true,
                mirroring: false,
            },
        ),
    ];

    println!("ablation on {id} ({n} subnets, 8 GPUs)\n");
    println!(
        "{:<16} {:>6} {:>12} {:>8} {:>8} {:>10}",
        "variant", "batch", "samples/s", "bubble", "ALU", "cache-hit"
    );
    let mut full_throughput = None;
    for (name, policy) in variants {
        let cfg = PipelineConfig::naspipe(8, n)
            .with_policy(policy)
            .with_seed(5);
        let spec = SimSpec {
            subnets: Some(subnets.clone()),
            ..SimSpec::new(&space, &cfg)
        };
        match spec.run() {
            Ok(out) => {
                let r = &out.report;
                let t = r.throughput_samples_per_sec();
                let rel = full_throughput.get_or_insert(t).max(f64::MIN_POSITIVE);
                println!(
                    "{name:<16} {:>6} {:>8.0} ({:>4.2}x) {:>7.2} {:>7.2}x {:>9}",
                    r.batch,
                    t,
                    t / rel,
                    r.bubble_ratio,
                    r.total_alu,
                    r.cache_hit_rate
                        .map(|h| format!("{:.1}%", h * 100.0))
                        .unwrap_or_else(|| "n/a".into()),
                );
            }
            Err(PipelineError::OutOfMemory {
                required,
                available,
            }) => {
                println!(
                    "{name:<16} cannot run: needs {:.1} GB/GPU, {:.1} GB available",
                    required as f64 / 1e9,
                    available as f64 / 1e9
                );
            }
            Err(e) => panic!("{name}: {e}"),
        }
    }
    println!("\n(the scheduler buys parallelism, the predictor buys batch size + hit rate,");
    println!(" mirroring keeps per-subnet partitions balanced)");
}
