//! Walkthrough of the paper's running example (Figures 2, 3, and 4).
//!
//! The paper illustrates database cracking, adaptive merging, and the hybrid
//! crack-sort on the letter sequence `hbnecoyulzqutgjwvdokimreapxafsi` with
//! two queries: `between 'd' and 'i'` and `between 'f' and 'm'`. This
//! example executes exactly that scenario on all three index structures and
//! prints the state after each query so the output can be compared with the
//! figures.
//!
//! Run with: `cargo run --example paper_walkthrough`

use adaptive_indexing::prelude::*;

fn letters_to_keys(s: &str) -> Vec<i64> {
    s.bytes().map(|b| (b - b'a' + 1) as i64).collect()
}

fn keys_to_letters(keys: &[i64]) -> String {
    keys.iter()
        .map(|&k| (b'a' + (k as u8) - 1) as char)
        .collect()
}

fn main() {
    let data = "hbnecoyulzqutgjwvdokimreapxafsi";
    let keys = letters_to_keys(data);
    // Inclusive letter ranges from the paper, as half-open key ranges.
    let q1 = ('d', 'i');
    let q2 = ('f', 'm');
    let to_range = |(lo, hi): (char, char)| {
        (
            (lo as u8 - b'a' + 1) as i64,
            (hi as u8 - b'a' + 1) as i64 + 1,
        )
    };

    println!("data loaded directly, without sorting:\n  {data}\n");

    // ----- Figure 2: database cracking --------------------------------
    println!("== database cracking (Figure 2) ==");
    let cracker = ConcurrentCracker::from_values(keys.clone(), LatchProtocol::None);
    for (label, q) in [("d–i", q1), ("f–m", q2)] {
        let (low, high) = to_range(q);
        let (count, metrics) = cracker.count(low, high);
        // Cracking leaves the qualifying keys in one contiguous piece.
        let array = cracker.snapshot_values();
        let start = array
            .iter()
            .position(|k| (low..high).contains(k))
            .unwrap_or(0);
        let result = &array[start..start + count as usize];
        assert!(result.iter().all(|k| (low..high).contains(k)));
        println!(
            "query {label}: result '{}' ({} cracks, array now {})",
            keys_to_letters(result),
            metrics.cracks_performed,
            keys_to_letters(&array)
        );
        println!("  pieces: {}", cracker.piece_count());
    }

    // ----- Figure 3: adaptive merging ----------------------------------
    println!("\n== adaptive merging (Figure 3) ==");
    let mut merging = AdaptiveMergeIndex::build_from_values(&keys, 8);
    println!(
        "initial partitions: {} sorted runs of up to 8 letters",
        merging.stats().initial_runs
    );
    for (label, q) in [("d–i", q1), ("f–m", q2)] {
        let (low, high) = to_range(q);
        let result: Vec<i64> = merging
            .query_range(low, high)
            .iter()
            .map(|&(k, _)| k)
            .collect();
        println!(
            "query {label}: result '{}', final partition now holds {} letters \
             ({} records merged so far)",
            keys_to_letters(&result),
            merging.final_partition_len(),
            merging.stats().records_merged
        );
    }

    // ----- Figure 4: hybrid crack-sort ----------------------------------
    println!("\n== hybrid crack-sort (Figure 4) ==");
    let mut hybrid = HybridCrackSort::build_from_values(&keys, 8);
    println!(
        "initial partitions: {} unsorted chunks of up to 8 letters",
        hybrid.stats().initial_partitions
    );
    for (label, q) in [("d–i", q1), ("f–m", q2)] {
        let (low, high) = to_range(q);
        let result: Vec<i64> = hybrid
            .query_range(low, high)
            .iter()
            .map(|&(k, _)| k)
            .collect();
        println!(
            "query {label}: result '{}', final partition now holds {} letters \
             ({} crack steps so far)",
            keys_to_letters(&result),
            hybrid.final_partition_len(),
            hybrid.stats().crack_steps
        );
    }

    println!(
        "\nall three structures returned identical results for both queries; \
         they differ only in how much initialisation and per-query refinement work they do."
    );
}
