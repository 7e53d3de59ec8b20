//! The schedule every run follows: set-ups timed before, during and after
//! the timed loop.

use std::time::Instant;

/// Bring a workload up `times` times, tearing down all but the last, and
/// return every set-up time with the last set-up.
pub fn measure_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let t = Instant::now();
        let up = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(up);
    }
    Ok((secs, last.expect("at least one set-up")))
}

/// What the timed loop and the set-ups it interleaves measured.
pub struct Schedule {
    /// Time spent in the loop's own rounds.
    pub loop_secs: f64,
    /// Set-up times measured inside the loop.
    pub setup_secs: Vec<f64>,
    pub setup_errors: Vec<String>,
}

/// Run `round` until `seconds` of rounds have passed, and at least once
/// and `first_rounds` times. After each round that ends `setup_every` seconds
/// or more of loop time since the last one, time one more set-up (`setup`
/// returns its time). The host's speed drifts over tens of seconds, so
/// spreading the set-ups over the whole loop makes their median an average
/// over more of that drift. The set-ups do not count as loop time.
pub fn interleaved(
    seconds: f64,
    first_rounds: usize,
    setup_every: f64,
    mut round: impl FnMut(),
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Schedule {
    let mut s = Schedule {
        loop_secs: 0.0,
        setup_secs: Vec::new(),
        setup_errors: Vec::new(),
    };
    let (mut since_setup, mut rounds) = (0.0, 0);
    loop {
        let start = Instant::now();
        round();
        let secs = start.elapsed().as_secs_f64();
        s.loop_secs += secs;
        since_setup += secs;
        rounds += 1;
        if since_setup >= setup_every {
            since_setup = 0.0;
            match setup() {
                Ok(secs) => s.setup_secs.push(secs),
                Err(e) => s.setup_errors.push(e),
            }
        }
        if rounds >= first_rounds && s.loop_secs >= seconds {
            return s;
        }
    }
}
