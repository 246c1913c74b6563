//! The CKKS approximate-homomorphic-encryption scheme (Cheon–Kim–Kim–Song),
//! in its full-RNS form, with everything the Anaheim paper needs:
//!
//! - encoding via the canonical embedding ([`encoding`]),
//! - key generation with gadget-decomposed evaluation keys ([`keys`]),
//! - the basic functions HADD / PMULT / HMULT / HROT ([`eval`]),
//! - key switching with ModUp / KeyMult / ModDown and *hoisting*
//!   ([`keyswitch`]),
//! - diagonal-packing homomorphic linear transforms with hoisting, MinKS,
//!   and BSGS ([`lintrans`]),
//! - CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff
//!   ([`bootstrap`]),
//! - op-count instrumentation used to validate the Anaheim cost model
//!   ([`opcount`]).
//!
//! # Quick start
//!
//! ```
//! use ckks::prelude::*;
//!
//! let params = CkksParams::builder()
//!     .log_n(10)
//!     .levels(4)
//!     .alpha(2)
//!     .scale_bits(40)
//!     .build();
//! let ctx = CkksContext::new(params);
//! let mut rng = rand::thread_rng();
//! let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1]);
//!
//! let enc = Encoder::new(&ctx);
//! let msg: Vec<Complex> = (0..ctx.slots()).map(|i| Complex::new(i as f64 * 0.001, 0.0)).collect();
//! let pt = enc.encode(&msg, ctx.max_level());
//! let ct = keys.public.encrypt(&pt, &mut rng);
//! let eval = Evaluator::new(&ctx);
//! let ct2 = eval.add(&ct, &ct);
//! let out = enc.decode(&keys.secret.decrypt(&ct2));
//! assert!((out[5].re - 0.010).abs() < 1e-6);
//! ```

pub mod bootstrap;
pub mod chebyshev;
pub mod ciphertext;
pub mod compare;
pub mod complex;
pub mod context;
pub mod encoding;
pub mod eval;
pub mod keys;
pub mod keyswitch;
pub mod lintrans;
pub mod matrix;
pub mod noise;
pub mod opcount;
pub mod params;
pub mod polyeval;
pub mod serial;
pub mod slots;
pub mod specialfft;

mod fanout;

/// Serializes the tests that change the process-wide `parpool` width or
/// `tune` profile.
#[cfg(test)]
static POOL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::ciphertext::{Ciphertext, Plaintext};
    pub use crate::complex::Complex;
    pub use crate::context::CkksContext;
    pub use crate::encoding::Encoder;
    pub use crate::keys::{KeyGenerator, KeySet, PublicKey, SecretKey};
    pub use crate::params::CkksParams;
    // Filled in as modules land:
    pub use crate::bootstrap::*;
    pub use crate::eval::*;
    pub use crate::lintrans::*;
}
