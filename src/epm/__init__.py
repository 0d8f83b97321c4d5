"""Mixed-modulus matrix ring arithmetic, the key-exchange protocols built on
it, and the linear-algebra attack that breaks them."""

from .zpmsolve import (
    PrimePower,
    ZpmSystem,
    SolutionSet,
    OpCounter,
    InconsistentSystem,
    EnumerationCapExceeded,
    DimensionMismatch,
    valuation,
    howell_solve,
    brute_solve,
    is_solution,
)
from .ring import (
    EpmMatrix,
    LiftedMatrix,
    CentralPoly,
    NotAMember,
    ParamMismatch,
    NotInImage,
    central_matrix,
    lift,
    unlift,
    combination_system,
    cayley_hamilton_coeffs,
    random_matrix,
    random_central_poly,
)
from .protocols import (
    SetupFailed,
    DhdpPublic,
    DhdpPrivateA,
    DhdpPrivateB,
    DhdpSession,
    EgdpPublicKey,
    EgdpPrivateKey,
    EgdpKeyPair,
    EgdpCiphertext,
    CentralizerSampler,
    dhdp_setup,
    dhdp_alice,
    dhdp_bob,
    dhdp_shared_alice,
    dhdp_shared_bob,
    run_dhdp_session,
    egdp_keygen,
    egdp_encrypt,
    egdp_decrypt,
    run_egdp_session,
)
from .attack import (
    build_attack_system,
    apply_weights,
    attack_dhdp,
    attack_egdp,
    zhang_system,
    bench_attack,
    summarize_bench,
    BenchRecord,
)
from .serialize import ParseError, TranscriptFile, parse_transcript, write_transcript
from .cli import cli_main

__version__ = "0.1.0"
