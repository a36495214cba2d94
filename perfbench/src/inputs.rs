//! Seeded inputs for every workload, generated during set-up. The same
//! seed gives the same records and synopses; the program sees nothing
//! but these.

use cludistream::{Message, ModelId, RecordStream};
use cludistream_datagen::{random_mixture, random_spd_matrix, MixtureGenConfig};
use cludistream_gmm::{avg_log_likelihood, Batch, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_rng::{Rng, StdRng};

/// Records per site batch: what a site pulls before draining its outbox.
pub const BATCH: usize = 100;
/// Held-out records per input set, scored by the reader and used for
/// `heldout_ll`.
pub const HOLDOUT: usize = 4096;
/// Input sets per seed of `drift` and of `tcp`. Passes cycle through
/// them and a run measures whole cycles: one set's EM share and synopsis
/// count follow its regimes, and the mean over four follows the seed far
/// less.
pub const VARIANTS: usize = 4;

/// `drift`: sites fed round-robin from one thread.
pub const DRIFT_SITES: usize = 4;
/// `drift`: records per site in one pass.
pub const DRIFT_RECORDS: usize = 50_000;
/// `drift`: probability that a regime boundary starts a new distribution.
pub const DRIFT_P_NEW: f64 = 0.5;

/// `fanin`: sites sending one `NewModel` and one `WeightUpdate` each.
pub const FANIN_SITES: usize = 1_000;
/// `fanin`: records each synopsis claims to summarize.
pub const FANIN_COUNT: u64 = 1_600;

/// `tcp`: records the socket site streams in one round.
pub const TCP_RECORDS: usize = 30_000;
/// `tcp`: the paper's default probability of a new distribution.
pub const TCP_P_NEW: f64 = 0.1;

/// Fixed, well-separated centers the `fanin` synopses are jittered
/// around, one per mixture component.
const REGIONS: [[f64; 4]; 5] = [
    [8.0, 0.0, 0.0, 0.0],
    [-8.0, 0.0, 0.0, 0.0],
    [0.0, 8.0, 0.0, 0.0],
    [0.0, -8.0, 0.0, 0.0],
    [0.0, 0.0, 8.0, 8.0],
];

/// A derived seed for one stream of a workload.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// One input set of a stream workload: records for every site plus a
/// held-out set drawn from the same regimes, never pushed.
pub struct StreamInputs {
    /// One record stream per site, row-major.
    pub streams: Vec<Batch>,
    /// Held-out records, spread evenly over every site's stream.
    pub holdout: Vec<Vector>,
    /// `holdout` as a scoring batch.
    pub batch: Batch,
}

/// Records between regime boundaries (the paper's 2K points).
const REGIME: usize = 2_000;

/// One site's stream of `records` records from the paper's evolving GMM
/// (d = 4, K = 5, a regime boundary every 2,000 records), and `holdout`
/// records drawn at even intervals from the regime generating the stream
/// at that point.
///
/// Exactly `round(p_new × boundaries)` boundaries, chosen by the seed,
/// start a new random mixture; `EvolvingStream` instead flips a coin with
/// probability `p_new` at each one. The rate is the same, but at this
/// stream length the coin's count varies so much across seeds that EM's
/// share of the work, and every timing with it, would follow the seed
/// rather than the code.
fn evolving(records: usize, p_new: f64, seed: u64, holdout: usize) -> (Vec<Vector>, Vec<Vector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut held_rng = StdRng::seed_from_u64(stream_seed(seed, u64::MAX));
    let generator = MixtureGenConfig { dim: 4, k: 5, ..Default::default() };
    let boundaries = records.div_ceil(REGIME) - 1;
    let mut switches: Vec<bool> =
        (0..boundaries).map(|b| b < (p_new * boundaries as f64).round() as usize).collect();
    for i in (1..switches.len()).rev() {
        switches.swap(i, rng.gen_range(0..=i));
    }
    let mut mixture = random_mixture(&generator, &mut rng);
    let stride = records / holdout;
    let mut pushed = Vec::with_capacity(records);
    let mut held = Vec::with_capacity(holdout);
    for i in 0..records {
        if i > 0 && i % REGIME == 0 && switches[i / REGIME - 1] {
            mixture = random_mixture(&generator, &mut rng);
        }
        pushed.push(mixture.sample(&mut rng));
        if i % stride == stride - 1 && held.len() < holdout {
            held.push(mixture.sample(&mut held_rng));
        }
    }
    (pushed, held)
}

fn stream_inputs(sites: usize, records: usize, p_new: f64, seed: u64) -> StreamInputs {
    let mut streams = Vec::with_capacity(sites);
    let mut holdout = Vec::with_capacity(HOLDOUT);
    for s in 0..sites {
        let (pushed, held) = evolving(records, p_new, stream_seed(seed, s as u64), HOLDOUT / sites);
        streams.push(Batch::from_records(&pushed));
        holdout.extend(held);
    }
    let batch = Batch::from_records(&holdout);
    StreamInputs { streams, holdout, batch }
}

/// A site's stream as the simulator and the socket runtime consume it.
pub fn record_stream(stream: &Batch) -> RecordStream {
    let stream = stream.clone();
    Box::new((0..stream.len()).map(move |i| Vector::from_slice(stream.row(i))))
}

/// `drift` inputs: [`VARIANTS`] sets of four sites' streams.
pub fn drift(seed: u64) -> Vec<StreamInputs> {
    (0..VARIANTS as u64)
        .map(|v| stream_inputs(DRIFT_SITES, DRIFT_RECORDS, DRIFT_P_NEW, stream_seed(seed, v << 16)))
        .collect()
}

/// `tcp` inputs: [`VARIANTS`] one-site streams.
pub fn tcp(seed: u64) -> Vec<StreamInputs> {
    (0..VARIANTS as u64)
        .map(|v| stream_inputs(1, TCP_RECORDS, TCP_P_NEW, stream_seed(seed, (1 << 32) | (v << 16))))
        .collect()
}

/// `fanin` inputs: every site's two synopses and a held-out set drawn
/// from the true regions.
pub struct FaninInputs {
    /// One `NewModel` per site, in site order.
    pub new_models: Vec<Message>,
    /// One `WeightUpdate` per site, in site order.
    pub updates: Vec<Message>,
    /// Held-out records.
    pub holdout: Vec<Vector>,
    /// `holdout` as a scoring batch.
    pub batch: Batch,
}

fn region(i: usize) -> Gaussian {
    Gaussian::spherical(Vector::from_slice(&REGIONS[i]), 1.0).expect("positive variance")
}

/// `fanin` inputs.
pub fn fanin(seed: u64) -> FaninInputs {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 2 << 32));
    let mut new_models = Vec::with_capacity(FANIN_SITES);
    let mut updates = Vec::with_capacity(FANIN_SITES);
    for site in 0..FANIN_SITES as u32 {
        let components: Vec<Gaussian> = REGIONS
            .iter()
            .map(|c| {
                let mean: Vector = c.iter().map(|x| x + rng.gen_range(-0.5..0.5)).collect();
                let cov = random_spd_matrix(4, (0.6, 1.4), &mut rng);
                Gaussian::new(mean, cov).expect("random SPD covariance is valid")
            })
            .collect();
        let weights = (0..REGIONS.len()).map(|_| rng.gen_range(1.0..2.0)).collect();
        let mixture = Mixture::new(components, weights).expect("valid mixture");
        let sample: Vec<Vector> = (0..64).map(|_| mixture.sample(&mut rng)).collect();
        let avg_ll = avg_log_likelihood(&mixture, &sample);
        new_models.push(Message::NewModel {
            site,
            model: ModelId(0),
            count: FANIN_COUNT,
            avg_ll,
            mixture,
        });
        updates.push(Message::WeightUpdate { site, model: ModelId(0), count_delta: FANIN_COUNT });
    }
    let holdout: Vec<Vector> =
        (0..HOLDOUT).map(|i| region(i % REGIONS.len()).sample(&mut rng)).collect();
    let batch = Batch::from_records(&holdout);
    FaninInputs { new_models, updates, holdout, batch }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (tcp(3), tcp(3), tcp(4));
        let rows = |i: &[StreamInputs]| i[2].streams[0].as_slice().to_vec();
        assert_eq!(rows(&a), rows(&b));
        assert_eq!(a[2].holdout, b[2].holdout);
        assert_ne!(rows(&a), rows(&c));
        assert_ne!(a[0].streams[0].as_slice(), a[1].streams[0].as_slice(), "variants differ");
        let (f, g, h) = (fanin(3), fanin(3), fanin(4));
        let means = |i: &FaninInputs| match &i.new_models[7] {
            Message::NewModel { mixture, .. } => mixture.components()[0].mean().clone(),
            _ => unreachable!("new_models holds NewModel messages"),
        };
        assert_eq!(means(&f), means(&g));
        assert_ne!(means(&f), means(&h));
        assert_eq!(f.holdout, g.holdout);
    }

    #[test]
    fn holdout_spans_every_site() {
        let inputs = drift(1);
        assert_eq!(inputs.len(), VARIANTS);
        assert_eq!(inputs[0].holdout.len(), HOLDOUT);
        assert_eq!(inputs[0].batch.len(), HOLDOUT);
        assert!(inputs[0].streams.iter().all(|s| s.len() == DRIFT_RECORDS));
    }
}
