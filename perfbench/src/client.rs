//! The client side of the service workloads: one `Session`, one batch at
//! a time, each job timed from the send of its batch to the arrival of
//! its terminal frame.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gmm_service::protocol::{JobEvent, SubmitSpec};
use gmm_service::queue::JobState;
use gmm_service::{RemoteOutcome, ServiceStats, Session};

use crate::util::{fingerprint, Fingerprint};

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct JobSeen {
    /// Batch send to terminal frame; `None` when no terminal frame came.
    pub latency_ms: Option<f64>,
    /// Receipt to `running` frame (traced runs, solved jobs only).
    pub queue_wait_us: Option<f64>,
    /// `running` frame to terminal frame (traced runs, solved jobs only).
    pub run_us: Option<f64>,
    /// Fingerprint of the served payload of a `done` job.
    pub payload: Option<Fingerprint>,
    /// Answered from a cache tier rather than solved.
    pub cached: bool,
    /// Reached `done` with a payload and its terminal frame arrived.
    pub ok: bool,
}

/// One batch's jobs, the time of each `Session` phase, and what went wrong.
#[derive(Debug, Default)]
pub struct BatchSeen {
    pub jobs: Vec<JobSeen>,
    /// `submit_batch` round-trip.
    pub submit_us: f64,
    /// Consuming the event stream until every job was terminal.
    pub events_us: f64,
    /// `wait_all`'s result fetches (one `result` round-trip per job).
    pub results_us: f64,
    /// Whole batch, send to last result.
    pub batch_secs: f64,
    /// Jobs that did not complete.
    pub failed: usize,
    /// Broken guarantees (e.g. a job with two terminal frames).
    pub problems: Vec<String>,
}

pub struct Client {
    session: Session,
    addr: SocketAddr,
    /// Bounded wait for a batch's terminal frames.
    wait: Duration,
    trace: bool,
    /// Every job id that already delivered its terminal frame: a second
    /// terminal frame for one of them is a broken guarantee even when it
    /// arrives during a later batch.
    finished: HashSet<u64>,
}

/// Default bounded wait. A batch normally ends in milliseconds; a job
/// whose terminal frame has not arrived by then is reconciled and counted
/// as failed.
pub const BATCH_WAIT: Duration = Duration::from_secs(10);

impl Client {
    pub fn connect(addr: SocketAddr, trace: bool) -> Result<Client, String> {
        Ok(Client {
            session: open(addr)?,
            addr,
            wait: BATCH_WAIT,
            trace,
            finished: HashSet::new(),
        })
    }

    #[cfg(test)]
    pub fn with_wait(mut self, wait: Duration) -> Client {
        self.wait = wait;
        self
    }

    /// Record `running` frames too (queue wait and run time per job).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }

    pub fn stats(&mut self) -> Result<ServiceStats, String> {
        self.session.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Submit `specs` as one batch and wait for every job.
    pub fn run_batch(&mut self, specs: Vec<SubmitSpec>) -> BatchSeen {
        let n = specs.len();
        let mut seen = BatchSeen {
            jobs: vec![JobSeen::default(); n],
            ..BatchSeen::default()
        };
        let t0 = Instant::now();
        let receipts = match self.session.submit_batch(specs) {
            Ok(r) => r,
            Err(e) => {
                seen.failed = n;
                seen.problems.push(format!("submit_batch failed: {e}"));
                self.reopen(&mut seen);
                return seen;
            }
        };
        let t1 = Instant::now();
        let index: HashMap<u64, usize> = receipts
            .iter()
            .enumerate()
            .map(|(i, r)| (r.job, i))
            .collect();
        let mut running: Vec<Option<Instant>> = vec![None; n];
        let mut terminal: Vec<Option<Instant>> = vec![None; n];
        let mut terminal_frames = vec![0u32; n];
        let mut late_duplicates = Vec::new();
        let trace = self.trace;
        let finished = &self.finished;
        let waited = self.session.for_each_event(self.wait, |ev| {
            let JobEvent::State { job, state, .. } = ev else {
                return;
            };
            match index.get(job) {
                Some(&i) => {
                    if state.is_terminal() {
                        terminal_frames[i] += 1;
                        terminal[i].get_or_insert_with(Instant::now);
                    } else if trace && *state == JobState::Running {
                        running[i].get_or_insert_with(Instant::now);
                    }
                }
                None if state.is_terminal() && finished.contains(job) => late_duplicates.push(*job),
                None => {}
            }
        });
        let t2 = Instant::now();
        let outcomes: Vec<Option<RemoteOutcome>> = match waited {
            Ok(()) => match self.session.wait_all(self.wait) {
                Ok(outs) => outs.into_iter().map(Some).collect(),
                Err(e) => {
                    seen.problems.push(format!("wait_all failed: {e}"));
                    self.reconcile(&receipts_jobs(&receipts), &mut seen)
                }
            },
            // No terminal frame for some job within the bounded wait: ask
            // for every job's result on a fresh session and go on.
            Err(_) => self.reconcile(&receipts_jobs(&receipts), &mut seen),
        };
        let t3 = Instant::now();
        seen.submit_us = us(t1 - t0);
        seen.events_us = us(t2 - t1);
        seen.results_us = us(t3 - t2);
        seen.batch_secs = (t3 - t0).as_secs_f64();

        for job in late_duplicates {
            seen.problems
                .push(format!("job {job} delivered a second terminal frame"));
        }
        for (i, out) in outcomes.into_iter().enumerate() {
            let job = &mut seen.jobs[i];
            if terminal_frames[i] > 1 {
                seen.problems.push(format!(
                    "job {} delivered {} terminal frames",
                    receipts[i].job, terminal_frames[i]
                ));
            }
            if let Some(at) = terminal[i] {
                self.finished.insert(receipts[i].job);
                job.latency_ms = Some((at - t0).as_secs_f64() * 1e3);
            }
            if let (Some(run), Some(end)) = (running[i], terminal[i]) {
                job.queue_wait_us = Some(us(run.saturating_duration_since(t1)));
                job.run_us = Some(us(end.saturating_duration_since(run)));
            }
            let Some(out) = out else { continue };
            job.cached = out.cached;
            if out.state == JobState::Done {
                job.payload = out
                    .solution
                    .as_ref()
                    .map(|v| fingerprint(&serde_json::to_string(v).expect("render a payload")));
            }
            job.ok = terminal[i].is_some() && job.payload.is_some();
        }
        seen.failed = seen.jobs.iter().filter(|j| !j.ok).count();
        seen
    }

    /// Fetch each job's result on a fresh session (the old one still
    /// waits on the jobs that never finished).
    fn reconcile(&mut self, jobs: &[u64], seen: &mut BatchSeen) -> Vec<Option<RemoteOutcome>> {
        self.reopen(seen);
        jobs.iter()
            .map(|&job| self.session.result(job).ok())
            .collect()
    }

    fn reopen(&mut self, seen: &mut BatchSeen) {
        match open(self.addr) {
            Ok(s) => self.session = s,
            Err(e) => seen.problems.push(format!("reconnect failed: {e}")),
        }
    }
}

fn open(addr: SocketAddr) -> Result<Session, String> {
    let mut session = Session::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Completion-only client, like `gmm batch` without `--progress`.
    session.stream_progress(false);
    Ok(session)
}

fn receipts_jobs(receipts: &[gmm_service::protocol::SubmitReceipt]) -> Vec<u64> {
    receipts.iter().map(|r| r.job).collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    use gmm_service::protocol::{Request, Response, SubmitReceipt};
    use gmm_workloads::{stream_instances, StreamSpec};

    /// A server that accepts batches and answers `result` with `done`,
    /// but never sends a terminal frame.
    fn silent_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let mut next_job = 1u64;
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        let response = match serde_json::from_str::<Request>(&line) {
                            Ok(Request::Hello { .. }) => Response::Welcome {
                                proto: 2,
                                capabilities: vec![],
                            },
                            Ok(Request::SubmitBatch { jobs, .. }) => Response::BatchSubmitted {
                                jobs: jobs
                                    .iter()
                                    .map(|_| {
                                        next_job += 1;
                                        SubmitReceipt {
                                            job: next_job,
                                            state: JobState::Queued,
                                            cached: false,
                                            key: String::new(),
                                        }
                                    })
                                    .collect(),
                            },
                            Ok(Request::Result { job }) => Response::ResultReady {
                                job,
                                state: JobState::Done,
                                cached: false,
                                objective: None,
                                solution: None,
                                error: None,
                            },
                            _ => Response::Error {
                                message: "unsupported".into(),
                            },
                        };
                        let mut text = serde_json::to_string(&response).unwrap();
                        text.push('\n');
                        if writer.write_all(text.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_terminal_frame_that_never_arrives_counts_as_failed_and_the_run_goes_on() {
        let addr = silent_server();
        let mut client = Client::connect(addr, false)
            .unwrap()
            .with_wait(Duration::from_millis(200));
        let inst = stream_instances(StreamSpec::default()).next().unwrap();
        let spec = || SubmitSpec::new(inst.design.clone(), inst.board.clone(), Default::default());
        for _ in 0..2 {
            let t = Instant::now();
            let seen = client.run_batch(vec![spec(), spec()]);
            assert!(t.elapsed() < Duration::from_secs(5), "the wait is bounded");
            assert_eq!(seen.failed, 2);
            assert!(seen.jobs.iter().all(|j| !j.ok && j.latency_ms.is_none()));
        }
    }
}
