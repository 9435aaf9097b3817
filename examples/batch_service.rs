//! Drives the batch compilation service over the benchmark corpus: a
//! cold pass on the worker pool, a warm pass served entirely from the
//! content-addressed cache, and the service's latency statistics.
//!
//! ```text
//! cargo run --example batch_service
//! ```

use velus::service::{service, ServiceConfig};
use velus::CompileRequest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names = ["tracker", "count", "cruise", "chrono", "watchdog3", "minus"];
    let requests: Vec<CompileRequest> = names
        .iter()
        .map(|name| {
            let source = std::fs::read_to_string(velus_repro::benchmark_path(name))?;
            Ok(CompileRequest::new(*name, source).with_root(*name))
        })
        .collect::<Result<_, std::io::Error>>()?;

    let svc = service(ServiceConfig {
        workers: 4,
        ..Default::default()
    });

    let cold = svc.compile_batch(requests.clone());
    println!(
        "cold pass: {} ok / {} programs in {:.2?} ({:.1} programs/s)",
        cold.ok_count(),
        cold.items.len(),
        cold.wall,
        cold.throughput()
    );

    let warm = svc.compile_batch(requests);
    println!(
        "warm pass: {} cache hits in {:.2?} ({:.1} programs/s)",
        warm.hit_count(),
        warm.wall,
        warm.throughput()
    );
    for (a, b) in cold.items.iter().zip(&warm.items) {
        let (ca, cb) = (a.primary().unwrap(), b.primary().unwrap());
        assert_eq!(
            ca.c_code(),
            cb.c_code(),
            "{}: warm C must be byte-identical",
            a.name
        );
    }
    println!("warm C is byte-identical to the cold pass for all programs\n");
    println!("{}", svc.stats());
    Ok(())
}
