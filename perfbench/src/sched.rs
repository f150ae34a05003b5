//! Deterministic request schedules: a seeded generator, Poisson arrival
//! times and the per-workload op mix.
//!
//! A schedule is a pure function of its seed and parameters, computed in
//! full before the server sees a request. The server receives only the
//! ops; rates never depend on how fast the system under test is.

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Exponential inter-arrival gaps of a Poisson process at `rate` per second.
#[derive(Debug, Clone)]
pub struct Poisson {
    rng: SplitMix64,
    rate: f64,
}

impl Poisson {
    /// A Poisson arrival process of `rate` events per second.
    pub fn new(rng: SplitMix64, rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Poisson { rng, rate }
    }

    /// Seconds until the next arrival.
    pub fn next_gap(&mut self) -> f64 {
        -(1.0 - self.rng.next_f64()).ln() / self.rate
    }
}

/// How a workload interleaves observes and forecasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Sensors tick round-robin; each observe is followed by one forecast
    /// per horizon `1..=h_max` of the same sensor.
    Continuous,
    /// Observes tick round-robin; each op is an observe with probability
    /// `observe_share`, otherwise a forecast of a uniformly drawn sensor at
    /// a uniform horizon.
    Random {
        /// Probability that an op is an observe.
        observe_share: f64,
    },
}

/// What an op asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Feed the sensor its next value of the dataset feed.
    Observe,
    /// Forecast `h` steps past the sensor's last observation.
    Forecast {
        /// Horizon.
        h: u32,
    },
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Due time in seconds from the start of its phase.
    pub at: f64,
    /// Whether the op belongs to the overload phase.
    pub overload: bool,
    /// Target sensor.
    pub sensor: u32,
    /// Observe or forecast.
    pub kind: OpKind,
    /// How many of this sensor's feed values were observed before the op:
    /// an observe feeds value `seq` of the feed, and a forecast at `seq`
    /// predicts feed value `seq - 1 + h`.
    pub seq: u32,
}

/// Draws the op sequence of one workload.
#[derive(Debug, Clone)]
pub struct MixGen {
    mix: Mix,
    sensors: u32,
    h_max: u32,
    rng: SplitMix64,
    /// Next sensor to observe (round-robin).
    cursor: u32,
    /// Forecasts still owed after the last observe (continuous mix).
    owed: Vec<(u32, u32)>,
    observed: Vec<u32>,
}

impl MixGen {
    /// A generator over `sensors` sensors and horizons `1..=h_max`.
    pub fn new(mix: Mix, sensors: u32, h_max: u32, rng: SplitMix64) -> Self {
        MixGen {
            mix,
            sensors,
            h_max,
            rng,
            cursor: 0,
            owed: Vec::new(),
            observed: vec![0; sensors as usize],
        }
    }

    fn observe_next(&mut self) -> (u32, OpKind, u32) {
        let sensor = self.cursor;
        self.cursor = (self.cursor + 1) % self.sensors;
        let seq = self.observed[sensor as usize];
        self.observed[sensor as usize] += 1;
        (sensor, OpKind::Observe, seq)
    }

    /// The next `(sensor, kind, seq)`.
    pub fn next_op(&mut self) -> (u32, OpKind, u32) {
        match self.mix {
            Mix::Continuous => {
                if let Some((sensor, h)) = self.owed.pop() {
                    return (sensor, OpKind::Forecast { h }, self.observed[sensor as usize]);
                }
                let op = self.observe_next();
                // Owed forecasts pop from the back: push h_max first.
                self.owed = (1..=self.h_max).rev().map(|h| (op.0, h)).collect();
                op
            }
            Mix::Random { observe_share } => {
                if self.rng.next_f64() < observe_share {
                    return self.observe_next();
                }
                let sensor = self.rng.below(u64::from(self.sensors)) as u32;
                let h = 1 + self.rng.below(u64::from(self.h_max)) as u32;
                (sensor, OpKind::Forecast { h }, self.observed[sensor as usize])
            }
        }
    }

    /// Feed values each sensor has been asked to observe so far.
    pub fn observed(&self) -> &[u32] {
        &self.observed
    }
}

/// Rates and lengths of a run's two phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Offered ops/s in the nominal (latency) phase.
    pub nominal_rate: f64,
    /// Length of the nominal phase in seconds.
    pub nominal_secs: f64,
    /// Offered ops/s in the overload (throughput) phase.
    pub overload_rate: f64,
    /// Length of the overload phase in seconds.
    pub overload_secs: f64,
}

/// The whole schedule of a run: nominal ops, then overload ops, drawn from
/// one mix generator so the overload phase continues the same sequence.
/// Returns the ops and how many feed values each sensor needs.
pub fn schedule(
    mix: Mix,
    sensors: u32,
    h_max: u32,
    phases: Phases,
    seed: u64,
) -> (Vec<Op>, Vec<u32>) {
    let mut gen = MixGen::new(mix, sensors, h_max, SplitMix64::new(seed, 1));
    let mut ops = Vec::new();
    for (overload, rate, secs, stream) in [
        (false, phases.nominal_rate, phases.nominal_secs, 2),
        (true, phases.overload_rate, phases.overload_secs, 3),
    ] {
        let mut arrivals = Poisson::new(SplitMix64::new(seed, stream), rate);
        let mut at = arrivals.next_gap();
        while at < secs {
            let (sensor, kind, seq) = gen.next_op();
            ops.push(Op { at, overload, sensor, kind, seq });
            at += arrivals.next_gap();
        }
    }
    (ops, gen.observed().to_vec())
}

/// Per op, whether it is a forecast repeating a (sensor, h) already read
/// since that sensor's last observe. Set-up's priming reads every horizon
/// of every sensor before the schedule starts.
pub fn repeat_reads(ops: &[Op], sensors: u32, h_max: u32) -> Vec<bool> {
    let primed = (1u64 << (h_max + 1)) - 2;
    let mut read = vec![primed; sensors as usize];
    ops.iter()
        .map(|op| {
            let mask = &mut read[op.sensor as usize];
            match op.kind {
                OpKind::Observe => {
                    *mask = 0;
                    false
                }
                OpKind::Forecast { h } => {
                    let repeat = *mask & (1u64 << h) != 0;
                    *mask |= 1u64 << h;
                    repeat
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHASES: Phases = Phases {
        nominal_rate: 500.0,
        nominal_secs: 4.0,
        overload_rate: 2000.0,
        overload_secs: 1.0,
    };

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        let mix = Mix::Random { observe_share: 0.2 };
        let a = schedule(mix, 8, 3, PHASES, 7);
        let b = schedule(mix, 8, 3, PHASES, 7);
        let c = schedule(mix, 8, 3, PHASES, 8);
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn poisson_gaps_have_the_offered_mean() {
        let mut p = Poisson::new(SplitMix64::new(3, 0), 250.0);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| p.next_gap()).sum();
        let mean = total / n as f64;
        assert!((mean * 250.0 - 1.0).abs() < 0.01, "mean gap {mean}");
        // Phase lengths hold rate × seconds ops, within Poisson noise.
        let (ops, _) = schedule(Mix::Continuous, 4, 3, PHASES, 11);
        let nominal = ops.iter().filter(|o| !o.overload).count() as f64;
        assert!((nominal - 2000.0).abs() < 4.0 * 2000f64.sqrt(), "nominal ops {nominal}");
        assert!(ops.iter().all(|o| o.at >= 0.0));
        assert!(ops.windows(2).all(|w| w[0].overload != w[1].overload || w[0].at <= w[1].at));
    }

    #[test]
    fn continuous_mix_reads_every_horizon_once_per_observe() {
        let mut gen = MixGen::new(Mix::Continuous, 3, 2, SplitMix64::new(1, 1));
        let ops: Vec<_> = (0..9).map(|_| gen.next_op()).collect();
        let f = |h| OpKind::Forecast { h };
        assert_eq!(
            ops,
            vec![
                (0, OpKind::Observe, 0),
                (0, f(1), 1),
                (0, f(2), 1),
                (1, OpKind::Observe, 0),
                (1, f(1), 1),
                (1, f(2), 1),
                (2, OpKind::Observe, 0),
                (2, f(1), 1),
                (2, f(2), 1),
            ]
        );
        assert_eq!(gen.observed(), &[1, 1, 1]);
    }

    #[test]
    fn repeat_reads_reset_on_observe() {
        let op = |sensor, kind| Op { at: 0.0, overload: false, sensor, kind, seq: 0 };
        let f = |h| OpKind::Forecast { h };
        let ops = [
            op(0, f(1)), // primed: repeat
            op(0, OpKind::Observe),
            op(0, f(1)), // first read since the observe
            op(1, f(2)), // other sensor still primed
            op(0, f(1)), // repeat
            op(0, f(2)), // first
        ];
        assert_eq!(repeat_reads(&ops, 2, 2), vec![true, false, false, true, true, false]);
        let (ops, _) = schedule(Mix::Continuous, 4, 3, PHASES, 3);
        assert!(repeat_reads(&ops, 4, 3).iter().skip(4 * 4).all(|&r| !r));
    }

    #[test]
    fn random_mix_holds_its_observe_share_and_seq_numbers() {
        let mix = Mix::Random { observe_share: 1.0 / 9.0 };
        let mut gen = MixGen::new(mix, 16, 4, SplitMix64::new(9, 1));
        let mut seen = [0u32; 16];
        let n = 90_000;
        let mut observes = 0;
        for _ in 0..n {
            let (sensor, kind, seq) = gen.next_op();
            assert_eq!(seq, seen[sensor as usize], "seq counts prior observes");
            match kind {
                OpKind::Observe => {
                    observes += 1;
                    seen[sensor as usize] += 1;
                }
                OpKind::Forecast { h } => assert!((1..=4).contains(&h)),
            }
        }
        let share = observes as f64 / n as f64;
        assert!((share - 1.0 / 9.0).abs() < 0.01, "observe share {share}");
        // Round-robin observes keep every sensor within one value.
        let (lo, hi) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
        assert!(hi - lo <= 1);
    }
}
