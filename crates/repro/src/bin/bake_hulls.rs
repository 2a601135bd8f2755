//! Prints `crates/core/src/baked.rs`: the three coverage stacks behind
//! hull costing, rebuilt by the paper's Algorithm 2 from their fixed seeds
//! and written as exact `u64` bit patterns. Takes tens of seconds.
//!
//! ```sh
//! cargo build --release -p paradrive-repro --bin bake_hulls
//! target/release/bake_hulls > crates/core/src/baked.rs
//! ```

fn main() {
    print!("{}", paradrive_core::rules::bake_hull_stacks());
}
