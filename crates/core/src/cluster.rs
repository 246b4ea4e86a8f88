//! Cluster description: accelerator types, counts, servers, prices.

/// Index of an accelerator type within a [`ClusterSpec`].
///
/// Using a plain index (rather than an enum) keeps the core generic over
/// whatever accelerator families a deployment has; `gavel-workloads` defines
/// the V100/P100/K80 zoo used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccelIdx(pub usize);

/// Static description of a heterogeneous cluster.
///
/// A cluster has one entry per accelerator type: a display name, the number
/// of workers (accelerators) of that type, how many accelerators share a
/// physical server (for placement sensitivity), and the hourly price (for
/// cost policies; zero for on-premise deployments).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    names: Vec<String>,
    num_workers: Vec<usize>,
    workers_per_server: Vec<usize>,
    price_per_hour: Vec<f64>,
}

impl ClusterSpec {
    /// Creates a cluster from `(name, count, workers_per_server, $/hour)`
    /// tuples, one per accelerator type.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty or any count / per-server figure is zero;
    /// a cluster without resources is a configuration bug worth failing
    /// loudly on.
    pub fn new(types: &[(&str, usize, usize, f64)]) -> Self {
        assert!(
            !types.is_empty(),
            "cluster needs at least one accelerator type"
        );
        let mut names = Vec::new();
        let mut num_workers = Vec::new();
        let mut workers_per_server = Vec::new();
        let mut price_per_hour = Vec::new();
        for &(name, count, per_server, price) in types {
            assert!(count > 0, "accelerator type `{name}` has zero workers");
            assert!(
                per_server > 0,
                "accelerator type `{name}` has zero workers per server"
            );
            names.push(name.to_string());
            num_workers.push(count);
            workers_per_server.push(per_server);
            price_per_hour.push(price);
        }
        ClusterSpec {
            names,
            num_workers,
            workers_per_server,
            price_per_hour,
        }
    }

    /// Number of accelerator types.
    pub fn num_types(&self) -> usize {
        self.names.len()
    }

    /// Iterator over all type indices.
    pub fn types(&self) -> impl Iterator<Item = AccelIdx> {
        (0..self.num_types()).map(AccelIdx)
    }

    /// Display name of type `j`.
    pub fn name(&self, j: AccelIdx) -> &str {
        &self.names[j.0]
    }

    /// Number of workers (accelerators) of type `j`.
    pub fn num_workers(&self, j: AccelIdx) -> usize {
        self.num_workers[j.0]
    }

    /// Number of accelerators per physical server for type `j`.
    pub fn workers_per_server(&self, j: AccelIdx) -> usize {
        self.workers_per_server[j.0]
    }

    /// Number of physical servers hosting type `j` (rounded up).
    pub fn num_servers(&self, j: AccelIdx) -> usize {
        self.num_workers[j.0].div_ceil(self.workers_per_server[j.0])
    }

    /// Hourly price of one accelerator of type `j` in dollars.
    pub fn price_per_hour(&self, j: AccelIdx) -> f64 {
        self.price_per_hour[j.0]
    }

    /// Total number of accelerators across all types.
    pub fn total_workers(&self) -> usize {
        self.num_workers.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::new(&[
            ("v100", 8, 8, 2.48),
            ("p100", 16, 4, 1.46),
            ("k80", 24, 8, 0.45),
        ])
    }

    #[test]
    fn accessors() {
        let c = spec();
        assert_eq!(c.num_types(), 3);
        assert_eq!(c.total_workers(), 48);
        assert_eq!(c.name(AccelIdx(0)), "v100");
        assert_eq!(c.num_workers(AccelIdx(2)), 24);
        assert_eq!(c.workers_per_server(AccelIdx(1)), 4);
        assert_eq!(c.num_servers(AccelIdx(1)), 4);
        assert!((c.price_per_hour(AccelIdx(0)) - 2.48).abs() < 1e-12);
    }

    #[test]
    fn server_rounding() {
        let c = ClusterSpec::new(&[("x", 10, 4, 0.0)]);
        assert_eq!(c.num_servers(AccelIdx(0)), 3);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_count_panics() {
        ClusterSpec::new(&[("x", 0, 1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_panics() {
        ClusterSpec::new(&[]);
    }
}
