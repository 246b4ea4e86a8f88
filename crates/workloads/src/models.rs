//! The Table 2 model zoo: 7 model families and their batch sizes, giving the
//! 26 job configurations used throughout the evaluation.

/// A DNN model family from Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelFamily {
    /// ResNet-50 image classification on ImageNet.
    ResNet50,
    /// ResNet-18 image classification on CIFAR-10.
    ResNet18,
    /// A3C deep reinforcement learning on Pong.
    A3C,
    /// Word-level LSTM language modeling on Wikitext-2.
    Lstm,
    /// Transformer language translation on Multi30k.
    Transformer,
    /// CycleGAN image-to-image translation on monet2photo.
    CycleGan,
    /// Recoder autoencoder recommendation on ML-20M.
    Recoder,
}

impl ModelFamily {
    /// All families, in Table 2 order.
    pub fn all() -> &'static [ModelFamily] {
        &[
            ModelFamily::ResNet50,
            ModelFamily::ResNet18,
            ModelFamily::A3C,
            ModelFamily::Lstm,
            ModelFamily::Transformer,
            ModelFamily::CycleGan,
            ModelFamily::Recoder,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::ResNet50 => "ResNet-50",
            ModelFamily::ResNet18 => "ResNet-18",
            ModelFamily::A3C => "A3C",
            ModelFamily::Lstm => "LSTM",
            ModelFamily::Transformer => "Transformer",
            ModelFamily::CycleGan => "CycleGAN",
            ModelFamily::Recoder => "Recoder",
        }
    }

    /// The batch sizes evaluated for this family (Table 2).
    pub fn batch_sizes(&self) -> &'static [u32] {
        match self {
            ModelFamily::ResNet50 => &[16, 32, 64, 128],
            ModelFamily::ResNet18 => &[16, 32, 64, 128, 256],
            ModelFamily::A3C => &[4],
            ModelFamily::Lstm => &[5, 10, 20, 40, 80],
            ModelFamily::Transformer => &[16, 32, 64, 128, 256],
            ModelFamily::CycleGan => &[1],
            ModelFamily::Recoder => &[512, 1024, 2048, 4096, 8192],
        }
    }

    /// Reference (smallest) batch size for this family.
    pub fn reference_batch(&self) -> u32 {
        self.batch_sizes()[0]
    }
}

/// One of the 26 job configurations: a model family at a batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobConfig {
    /// The model family.
    pub family: ModelFamily,
    /// The minibatch size.
    pub batch_size: u32,
}

impl JobConfig {
    /// Creates a configuration, validating that the batch size is one of the
    /// family's Table 2 batch sizes.
    ///
    /// # Panics
    ///
    /// Panics on a batch size not listed in Table 2 for the family.
    pub fn new(family: ModelFamily, batch_size: u32) -> Self {
        Self::try_new(family, batch_size).unwrap_or_else(|| {
            panic!(
                "{} does not list batch size {batch_size} in Table 2",
                family.name()
            )
        })
    }

    /// Like [`JobConfig::new`], but `None` on a batch size not listed in
    /// Table 2 for the family — for configurations read from outside the
    /// program.
    pub fn try_new(family: ModelFamily, batch_size: u32) -> Option<Self> {
        family
            .batch_sizes()
            .contains(&batch_size)
            .then_some(JobConfig { family, batch_size })
    }

    /// All 26 configurations from Table 2, in a fixed order.
    pub fn all() -> Vec<JobConfig> {
        let mut out = Vec::with_capacity(26);
        for &f in ModelFamily::all() {
            for &b in f.batch_sizes() {
                out.push(JobConfig {
                    family: f,
                    batch_size: b,
                });
            }
        }
        out
    }
}

impl std::fmt::Display for JobConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (batch {})", self.family.name(), self.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_26_configurations() {
        assert_eq!(JobConfig::all().len(), 26);
    }

    #[test]
    fn config_display() {
        let c = JobConfig::new(ModelFamily::ResNet50, 32);
        assert_eq!(c.to_string(), "ResNet-50 (batch 32)");
    }

    #[test]
    #[should_panic(expected = "does not list batch size")]
    fn invalid_batch_rejected() {
        JobConfig::new(ModelFamily::CycleGan, 64);
    }

    #[test]
    fn reference_batches_are_smallest() {
        for &f in ModelFamily::all() {
            let sizes = f.batch_sizes();
            assert_eq!(f.reference_batch(), sizes[0]);
            assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
