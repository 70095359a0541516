//! Namespace metadata: files, blocks, replicas, storage policies.

use rp_hpc::NodeId;

/// Storage policy of a file (heterogeneous-storage support, paper §II).
/// Policies map onto a bandwidth factor of the datanode disk — an SSD tier
/// is faster than the default spinning tier, the archival tier slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoragePolicy {
    /// Hot data on the default local-disk tier.
    #[default]
    Default,
    /// All replicas on the SSD tier.
    AllSsd,
    /// Cold/archival data: dense, slow tier.
    Archive,
}

impl StoragePolicy {
    /// Per-stream bandwidth factor relative to the machine's local disk.
    pub fn bandwidth_factor(self) -> f64 {
        match self {
            StoragePolicy::Default => 1.0,
            StoragePolicy::AllSsd => 2.0,
            StoragePolicy::Archive => 0.35,
        }
    }
}

/// One HDFS block and where its replicas live.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    pub id: u64,
    pub size_bytes: u64,
    pub replicas: Vec<NodeId>,
}

/// A file in the namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    pub path: String,
    pub size_bytes: u64,
    pub policy: StoragePolicy,
    pub blocks: Vec<BlockMeta>,
}

/// Split a file size into block sizes.
pub fn split_blocks(size_bytes: u64, block_size_bytes: u64) -> Vec<u64> {
    assert!(block_size_bytes > 0);
    if size_bytes == 0 {
        return vec![0];
    }
    let full = size_bytes / block_size_bytes;
    let rem = size_bytes % block_size_bytes;
    let mut out = vec![block_size_bytes; full as usize];
    if rem > 0 {
        out.push(rem);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_exact_multiple() {
        assert_eq!(split_blocks(256, 128), vec![128, 128]);
    }

    #[test]
    fn split_with_tail() {
        assert_eq!(split_blocks(300, 128), vec![128, 128, 44]);
    }

    #[test]
    fn split_small_file_is_single_block() {
        assert_eq!(split_blocks(5, 128), vec![5]);
        assert_eq!(split_blocks(0, 128), vec![0]);
    }

    #[test]
    fn policy_factors_ordered() {
        assert!(
            StoragePolicy::AllSsd.bandwidth_factor() > StoragePolicy::Default.bandwidth_factor()
        );
        assert!(
            StoragePolicy::Archive.bandwidth_factor() < StoragePolicy::Default.bandwidth_factor()
        );
    }
}
