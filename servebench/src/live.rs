//! Live traffic against the running service: the open-loop read generator,
//! the publisher beside it, the closed-loop saturation phase and the probe
//! publishes of read-only workloads.
//!
//! The open loop runs on the calling thread: it sends each read at its
//! scheduled time with `try_submit` (a full queue is a refusal, never a
//! stall) and, between sends, collects replies. Latency is taken from the
//! *scheduled* send time, so a stall that delays later sends is charged to
//! every request it delayed. Publishes run on one more thread, so a publish
//! in progress delays neither sends nor reply collection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datagen::UpdateStream;
use entity_graph::GraphDelta;
use preview_obs::Recorder;
use preview_service::{
    PendingResponse, PreviewRequest, PreviewResponse, PreviewService, PublishReport,
    ResolvedAlgorithm, ServiceError, ServiceResult,
};

use crate::check::AnswerLog;
use crate::workload::GRAPH_NAME;

/// The generator sleeps until this long before a send, then spins, so timer
/// slack (tens of microseconds) does not make sends late.
const SPIN: Duration = Duration::from_micros(100);
/// With several replies outstanding, the longest the generator blocks on the
/// oldest before checking the others again.
const POLL: Duration = Duration::from_micros(50);
/// Delay from the start of the phase to its time origin.
const LEAD: Duration = Duration::from_millis(5);

/// One read as the client saw it.
#[derive(Debug)]
pub struct ReadOutcome {
    /// Index of the request in the generated read stream.
    pub index: usize,
    /// Scheduled send time, from the phase origin.
    pub scheduled: Duration,
    /// Actual send time, from the phase origin.
    pub sent: Duration,
    /// Time the reply was observed, from the phase origin.
    pub received: Duration,
    /// The reply; `Err(QueueFull)` for a refused send.
    pub reply: Result<Reply, ServiceError>,
}

/// What the benchmark keeps of a reply once the answer log has checked it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Version the request resolved to.
    pub version: u32,
    /// Engine that answered.
    pub algorithm: ResolvedAlgorithm,
    /// Served without running discovery.
    pub cache_hit: bool,
    /// Time in the service's queue.
    pub queue_wait: Duration,
    /// Time resolving and computing (or fetching) the answer.
    pub compute: Duration,
}

impl Reply {
    fn of(result: ServiceResult<PreviewResponse>) -> Result<Reply, ServiceError> {
        result.map(|r| Reply {
            version: r.version,
            algorithm: r.algorithm,
            cache_hit: r.cache_hit,
            queue_wait: r.queue_wait,
            compute: r.compute,
        })
    }
}

impl ReadOutcome {
    /// Latency from the scheduled send time to the observed reply.
    pub fn latency(&self) -> Duration {
        self.received.saturating_sub(self.scheduled)
    }

    /// How late the generator sent.
    pub fn send_lag(&self) -> Duration {
        self.sent.saturating_sub(self.scheduled)
    }
}

/// One publish as the client saw it.
#[derive(Debug)]
pub struct PublishOutcome {
    /// Duration of the `publish_delta` call.
    pub duration: Duration,
    /// The delta that was published.
    pub delta: GraphDelta,
    /// The version that was latest when the delta was generated.
    pub base_version: u32,
    /// The service's report.
    pub result: ServiceResult<PublishReport>,
}

/// Everything one open-loop phase produced.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// Reads in send order.
    pub reads: Vec<ReadOutcome>,
    /// Publishes in order.
    pub publishes: Vec<PublishOutcome>,
    /// Replies outstanding at each send.
    pub in_flight: Vec<usize>,
}

struct InFlight {
    index: usize,
    scheduled: Duration,
    sent: Duration,
    min_version: u32,
    pending: PendingResponse,
}

/// Replies of the open loop, collected while the generator waits.
struct Collector<'a> {
    // lint: allow(wall-clock, the benchmark times the service from outside)
    origin: Instant,
    outstanding: VecDeque<InFlight>,
    done: Vec<ReadOutcome>,
    requests: &'a [PreviewRequest],
    log: &'a mut AnswerLog,
}

impl Collector<'_> {
    fn finish(&mut self, flight: InFlight, result: ServiceResult<PreviewResponse>) {
        let received = self.origin.elapsed();
        self.log
            .record(&self.requests[flight.index], flight.min_version, &result);
        self.done.push(ReadOutcome {
            index: flight.index,
            scheduled: flight.scheduled,
            sent: flight.sent,
            received,
            reply: Reply::of(result),
        });
    }

    /// Records every reply that has already arrived.
    fn harvest(&mut self) {
        let mut i = 0;
        while i < self.outstanding.len() {
            match self.outstanding[i].pending.wait_timeout(Duration::ZERO) {
                Some(result) => {
                    let flight = self.outstanding.remove(i).expect("index in range");
                    self.finish(flight, result);
                }
                None => i += 1,
            }
        }
    }

    /// Collects replies until `deadline` (or, with `None`, until none is
    /// outstanding).
    // lint: allow(wall-clock, the benchmark times the service from outside)
    fn collect_until(&mut self, deadline: Option<Instant>) {
        loop {
            self.harvest();
            // lint: allow(wall-clock, the benchmark times the service from outside)
            let now = Instant::now();
            let left = deadline.map(|d| d.saturating_duration_since(now));
            if left == Some(Duration::ZERO) {
                return;
            }
            if self.outstanding.is_empty() {
                match left {
                    Some(left) => thread::sleep(left),
                    None => return,
                }
                continue;
            }
            // A lone reply is awaited until the deadline; with several, the
            // oldest is awaited briefly so the others are seen promptly.
            let wait = match (self.outstanding.len(), left) {
                (1, Some(left)) => left,
                (1, None) => Duration::from_secs(3600),
                (_, Some(left)) => left.min(POLL),
                (_, None) => POLL,
            };
            if let Some(result) = self.outstanding[0].pending.wait_timeout(wait) {
                let flight = self.outstanding.pop_front().expect("non-empty");
                self.finish(flight, result);
            }
        }
    }
}

/// What the publisher thread needs.
pub struct PublishPlan<'a> {
    /// Scheduled publish starts, nanoseconds from the origin.
    pub at_ns: &'a [u64],
    /// The seeded delta source.
    pub stream: &'a mut UpdateStream,
    /// Attach the publisher thread to this recorder (traced phase only).
    pub recorder: Option<&'a Arc<Recorder>>,
}

/// Sends `reads` at `at_ns` (nanoseconds from the origin) and, when `plan`
/// is given, publishes on its schedule from a second thread. Every reply is
/// recorded in `log`.
pub fn open_loop(
    service: &PreviewService,
    reads: &[PreviewRequest],
    at_ns: &[u64],
    plan: Option<PublishPlan<'_>>,
    log: &mut AnswerLog,
) -> Result<LiveRun, String> {
    let first_version = service
        .registry()
        .latest_version(GRAPH_NAME)
        .ok_or("graph not registered")?;
    let published = AtomicU32::new(first_version);
    // lint: allow(wall-clock, the benchmark times the service from outside)
    let origin = Instant::now() + LEAD;
    let mut collector = Collector {
        origin,
        outstanding: VecDeque::new(),
        done: Vec::with_capacity(reads.len()),
        requests: reads,
        log,
    };
    let mut in_flight = Vec::with_capacity(reads.len());
    let publishes = thread::scope(|scope| {
        let publisher = plan.map(|plan| {
            let published = &published;
            scope.spawn(move || publish_on_schedule(service, origin, plan, published))
        });
        for (index, (request, &at)) in reads.iter().zip(at_ns).enumerate() {
            let scheduled = Duration::from_nanos(at);
            let due = origin + scheduled;
            let request = request.clone();
            collector.collect_until(Some(due.checked_sub(SPIN).unwrap_or(due)));
            // Spin to the send time, still taking replies as they arrive.
            // lint: allow(wall-clock, the benchmark times the service from outside)
            while Instant::now() < due {
                collector.harvest();
                std::hint::spin_loop();
            }
            let sent = origin.elapsed();
            // lint: ordering-ok(version watermark; SeqCst orders it with the read sends)
            let min_version = published.load(Ordering::SeqCst);
            in_flight.push(collector.outstanding.len());
            let flight = |pending| InFlight {
                index,
                scheduled,
                sent,
                min_version,
                pending,
            };
            match service.try_submit(request) {
                Ok(pending) => collector.outstanding.push_back(flight(pending)),
                Err(e) => {
                    collector
                        .log
                        .record(&reads[index], min_version, &Err(e.clone()));
                    collector.done.push(ReadOutcome {
                        index,
                        scheduled,
                        sent,
                        received: sent,
                        reply: Err(e),
                    });
                }
            }
        }
        collector.collect_until(None);
        publisher
            .map(|handle| handle.join().expect("publisher thread panicked"))
            .unwrap_or_default()
    });
    let mut reads_done = collector.done;
    reads_done.sort_by_key(|r| r.index);
    Ok(LiveRun {
        reads: reads_done,
        publishes,
        in_flight,
    })
}

/// The publisher thread: generates each delta off the timed path, then
/// publishes it at its scheduled time.
fn publish_on_schedule(
    service: &PreviewService,
    // lint: allow(wall-clock, the benchmark times the service from outside)
    origin: Instant,
    plan: PublishPlan<'_>,
    published: &AtomicU32,
) -> Vec<PublishOutcome> {
    let _attached = plan.recorder.map(|recorder| recorder.attach());
    let mut outcomes = Vec::with_capacity(plan.at_ns.len());
    for &at in plan.at_ns {
        let (delta, base_version) = next_delta(service, GRAPH_NAME, plan.stream);
        let due = origin + Duration::from_nanos(at);
        // lint: allow(wall-clock, the benchmark times the service from outside)
        thread::sleep(due.saturating_duration_since(Instant::now()));
        let outcome = publish(service, GRAPH_NAME, delta, base_version);
        if let Ok(report) = &outcome.result {
            // lint: ordering-ok(version watermark; SeqCst orders it with the read sends)
            published.store(report.version, Ordering::SeqCst);
        }
        outcomes.push(outcome);
    }
    outcomes
}

/// The next delta of `stream`, generated against the latest version of
/// `graph`.
fn next_delta(
    service: &PreviewService,
    graph: &str,
    stream: &mut UpdateStream,
) -> (GraphDelta, u32) {
    let latest = service
        .registry()
        .resolve(graph, None)
        .expect("the workload graphs stay registered");
    (stream.next_delta(latest.graph()), latest.version())
}

fn publish(
    service: &PreviewService,
    graph: &str,
    delta: GraphDelta,
    base_version: u32,
) -> PublishOutcome {
    // lint: allow(wall-clock, the benchmark times the service from outside)
    let start = Instant::now();
    let result = service.publish_delta(graph, &delta);
    PublishOutcome {
        duration: start.elapsed(),
        delta,
        base_version,
        result,
    }
}

/// Publishes `count` deltas to `graph` back to back.
pub fn publish_probe(
    service: &PreviewService,
    graph: &str,
    stream: &mut UpdateStream,
    count: usize,
) -> Vec<PublishOutcome> {
    (0..count)
        .map(|_| {
            let (delta, base_version) = next_delta(service, graph, stream);
            publish(service, graph, delta, base_version)
        })
        .collect()
}

/// Length of one saturation window.
pub const SATURATION_SLICE: Duration = Duration::from_millis(100);

/// Closed-loop capacity: keeps `window` requests outstanding for `duration`
/// and returns the completions per second of each [`SATURATION_SLICE`] of
/// it (the caller reports the median window, so a brief stall of the host
/// moves one window rather than the result). Requests are taken from
/// `reads` in order from `*cursor`, which advances; every reply is recorded
/// in `log`, which expects `min_version` or later.
pub fn saturation(
    service: &PreviewService,
    reads: &[PreviewRequest],
    cursor: &mut usize,
    window: usize,
    duration: Duration,
    min_version: u32,
    log: &mut AnswerLog,
) -> Result<Vec<f64>, String> {
    let mut outstanding: VecDeque<(usize, PendingResponse)> = VecDeque::new();
    let mut submit = |outstanding: &mut VecDeque<(usize, PendingResponse)>| {
        let index = *cursor % reads.len();
        *cursor += 1;
        service
            .submit(reads[index].clone())
            .map(|pending| outstanding.push_back((index, pending)))
            .map_err(|e| format!("saturation submit failed: {e}"))
    };
    let slices = (duration.as_nanos() / SATURATION_SLICE.as_nanos()).max(1) as usize;
    let mut completed = vec![0u64; slices];
    // lint: allow(wall-clock, the benchmark times the service from outside)
    let start = Instant::now();
    for _ in 0..window {
        submit(&mut outstanding)?;
    }
    while let Some((index, pending)) = outstanding.pop_front() {
        log.record(&reads[index], min_version, &pending.wait());
        let slot = (start.elapsed().as_nanos() / SATURATION_SLICE.as_nanos()) as usize;
        if let Some(count) = completed.get_mut(slot) {
            *count += 1;
            submit(&mut outstanding)?;
        }
    }
    Ok(completed
        .iter()
        .map(|&c| c as f64 / SATURATION_SLICE.as_secs_f64())
        .collect())
}

/// Whether an error is the service refusing work (as opposed to failing it).
pub fn is_refusal(error: &ServiceError) -> bool {
    matches!(error, ServiceError::QueueFull)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use preview_core::PreviewSpace;
    use preview_service::{GraphRegistry, ServiceConfig};

    use super::*;
    use crate::setup::generate_graph;
    use crate::workload::workload;

    #[test]
    fn latency_runs_from_the_scheduled_send_time() {
        let read = ReadOutcome {
            index: 0,
            scheduled: Duration::from_millis(10),
            sent: Duration::from_millis(30),
            received: Duration::from_millis(31),
            reply: Err(ServiceError::QueueFull),
        };
        assert_eq!(read.latency(), Duration::from_millis(21));
        assert_eq!(read.send_lag(), Duration::from_millis(20));
    }

    /// Coordinated omission: a 50 ms stall in the only worker must be
    /// charged in full to every request scheduled behind it, while the
    /// generator keeps sending on schedule.
    #[test]
    fn requests_queued_behind_a_stall_are_charged_the_whole_wait() {
        let hot = workload("hot-read").expect("workload exists");
        let registry = Arc::new(GraphRegistry::new());
        registry.register(GRAPH_NAME, generate_graph(&hot));
        let service = PreviewService::start(
            ServiceConfig {
                workers: 1,
                queue_capacity: 64,
                cache_capacity: 64,
                cache_shards: 1,
            },
            registry,
        );
        let request = PreviewRequest::new(GRAPH_NAME, PreviewSpace::concise(2, 4).expect("valid"));
        let reads = vec![request; 20];
        let at_ns: Vec<u64> = (0..20).map(|i| i * 2_000_000).collect();
        let stall = Duration::from_millis(50);
        service.inject_delay_next(stall.as_micros() as u64);
        let mut log = AnswerLog::default();
        let live = open_loop(&service, &reads, &at_ns, None, &mut log).expect("open loop runs");
        assert_eq!(live.reads.len(), 20);
        for read in &live.reads {
            assert!(read.reply.is_ok());
            assert!(
                read.send_lag() < Duration::from_millis(10),
                "generator stalled: lag {:?}",
                read.send_lag()
            );
            if read.scheduled < stall {
                // Nothing scheduled before the stall ends can be answered
                // before it ends, and its latency says so.
                assert!(read.received >= stall, "{read:?}");
                assert!(read.latency() >= stall - read.scheduled);
            }
        }
        let queued = &live.reads[5];
        assert!(queued.latency() >= Duration::from_millis(40), "{queued:?}");
    }
}
