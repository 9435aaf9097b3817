//! The compile loop shared by the single-process workloads: each
//! program is compiled cold as `velus compile --emit KINDS` does, its
//! artifacts rendered into the text the command writes (the request),
//! then compiled again at once (the warm compile), whose text must be
//! byte-equal to the cold one.

use std::time::{Duration, Instant};

use velus::{ArtifactKind, ServiceArtifact};

use crate::gauge::Gauge;
use crate::inputs::Program;
use crate::{compile, render, stats, Report};

/// A program with the artifact kinds it is compiled for.
pub type Job = (Program, Vec<ArtifactKind>);

/// Per-job samples, one per pass.
#[derive(Debug, Default, Clone)]
struct JobTimes {
    compile_ms: Vec<f64>,
    request_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

/// The samples of a compile loop, in milliseconds at full host speed
/// (see [`Gauge`]). Every metric is taken over the jobs' per-job
/// medians, so a burst of machine noise during one pass moves no job's
/// figure.
#[derive(Debug, Default)]
pub struct CompileLoop {
    jobs: Vec<JobTimes>,
    src_bytes: u64,
}

fn medians(jobs: &[JobTimes], f: impl Fn(&JobTimes) -> &Vec<f64>) -> Vec<f64> {
    jobs.iter().map(|j| stats::median(f(j))).collect()
}

impl CompileLoop {
    /// Compiles every job once per pass, for whole passes until
    /// `budget` is spent (at least one). `first_pass` sees the cold
    /// artifacts of the first pass, for the output checks.
    pub fn run(
        jobs: &[Job],
        budget: Duration,
        report: &mut Report,
        mut first_pass: impl FnMut(usize, &[(ArtifactKind, ServiceArtifact)], &mut Report),
    ) -> CompileLoop {
        let mut out = CompileLoop {
            jobs: vec![JobTimes::default(); jobs.len()],
            src_bytes: jobs.iter().map(|(p, _)| p.source.len() as u64).sum(),
        };
        let start = Instant::now();
        let mut pass = 0;
        let mut gauge = Gauge::new();
        while pass == 0 || start.elapsed() < budget {
            for (i, (p, kinds)) in jobs.iter().enumerate() {
                let t0 = Instant::now();
                let cold = compile(p, kinds);
                let t1 = Instant::now();
                let cold = match cold {
                    Ok(artifacts) => artifacts,
                    Err(e) => {
                        report.check(false, || format!("{} failed to compile: {e}", p.name));
                        continue;
                    }
                };
                let text = render(&cold);
                let t2 = Instant::now();
                let warm = compile(p, kinds);
                let t3 = Instant::now();
                report.check(true, String::new);
                let warm_text = warm.as_deref().map(render);
                report.check(matches!(&warm_text, Ok(t) if *t == text), || {
                    format!(
                        "{}: the warm compile's output differs from the cold one",
                        p.name
                    )
                });
                let slowdown = gauge.bracket();
                let ms = |d: Duration| d.as_secs_f64() * 1e3 / slowdown;
                let times = &mut out.jobs[i];
                times.compile_ms.push(ms(t1 - t0));
                times.request_ms.push(ms(t2 - t0));
                times.warm_ms.push(ms(t3 - t2));
                if pass == 0 {
                    first_pass(i, &cold, report);
                }
            }
            pass += 1;
        }
        out
    }

    /// The compile-family end-to-end metrics.
    pub fn metrics(&self, report: &mut Report) {
        let compile = medians(&self.jobs, |j| &j.compile_ms);
        let request = medians(&self.jobs, |j| &j.request_ms);
        let warm = medians(&self.jobs, |j| &j.warm_ms);
        let total_ms: f64 = compile.iter().sum();
        let n = self.jobs.len() as f64;
        report.metric("compile_ms_p50", stats::percentile(&compile, 50.0), "ms");
        report.metric("compile_ms_p99", stats::percentile(&compile, 99.0), "ms");
        report.metric(
            "ns_per_src_byte",
            total_ms * 1e6 / self.src_bytes as f64,
            "ns/B",
        );
        report.metric("cold_prog_per_s", n / (total_ms / 1e3), "1/s");
        report.metric(
            "warm_prog_per_s",
            n / (warm.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        report.metric("request_ms_p50", stats::percentile(&request, 50.0), "ms");
        report.metric("request_ms_p99", stats::percentile(&request, 99.0), "ms");
    }
}

/// Output-size and WCET metrics of one pass of cold artifacts: C bytes
/// per source byte over the jobs that emit C, and the geometric mean of
/// the CompCert-model step WCET over the roots.
#[derive(Debug, Default)]
pub struct OutputTally {
    pub c_bytes: u64,
    pub c_src_bytes: u64,
    pub wcet: Vec<f64>,
}

impl OutputTally {
    pub fn add(&mut self, p: &Program, artifacts: &[(ArtifactKind, ServiceArtifact)]) {
        for (_, artifact) in artifacts {
            match artifact {
                ServiceArtifact::CCode { c_code } => {
                    self.c_bytes += c_code.len() as u64;
                    self.c_src_bytes += p.source.len() as u64;
                }
                ServiceArtifact::Wcet(w) => self.wcet.push(w.cycles as f64),
                _ => {}
            }
        }
    }

    /// Adds the WCET of each program, analyzed as `--emit wcet` does.
    pub fn add_wcet<'p>(
        &mut self,
        programs: impl IntoIterator<Item = &'p Program>,
        report: &mut Report,
    ) {
        for p in programs {
            match compile(p, &[WCET]) {
                Ok(artifacts) => self.add(p, &artifacts),
                Err(e) => report.check(false, || format!("{}: WCET analysis failed: {e}", p.name)),
            }
        }
    }

    pub fn metrics(&self, report: &mut Report) {
        report.metric(
            "c_bytes_per_src_byte",
            self.c_bytes as f64 / self.c_src_bytes as f64,
            "B/B",
        );
        report.metric("step_wcet_cycles", stats::geomean(&self.wcet), "cycles");
    }
}

/// The CompCert-model WCET artifact kind.
pub const WCET: ArtifactKind = ArtifactKind::Wcet {
    model: velus::WcetModelKind::CompCert,
};
