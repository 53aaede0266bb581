"""The pinned detail line of every `qcs verify` check, by check name.

``test_property_sweep`` and ``test_acceptance_criterion`` compare each
check's ``detail`` with its entry here, so a change that moves a reported
figure (a float's last printed digit included) shows in the suite run that
already runs the check.  Like the report digests in
test_reference_reports.py, the float figures hold for the numpy and BLAS
build they were taken on; another build may move a last digit.
"""

DETAILS = {
    "spectral-reconstruction": "max deviation 5.551e-15 over 200 operators",
    "galois-pair": "Galois inequalities hold on 200 random CDFs",
    "quantile-pushforward": "level-interval lengths equal atom weights exactly",
    "functional-covariance": "200 images match a fresh diagonalization, worst ratio to the bound 0.20",
    "map-exactness": "compositions of up to 6 maps preserve mass exactly",
    "group-closure": "closure under composition and inversion on 60 random specs",
    "factorization-roundtrip": "100 roundtrips exact",
    "born-exactness": "max |exact probability - spectral weight| = 0.000e+00",
    "squaring-example": "indicators, 1/2 disagreement, and exact repair all hold",
    "null-interval": "preimage is empty exactly when its measure vanishes",
    "sampling-fit": "100/100 seeds under the 99% band",
    "moment-identity": "max |label - matrix| = 3.553e-14",
    "barrier-recovery": "value functions recovered a.e. on 50 cases",
    "no-go-invariance": "disagreement is exactly 1/2 under 30 random precompositions",
    "monotone-covariance": "same-barrier covariance holds for increasing reparametrizations",
    "identifiability": "value statistics identify the operator on 30 pairs",
    "sigma-simple-partition": "measures (5/8, 1/4, 1/8); truncated tail carries the rest",
    "spectrum-closure": "attained values equal the spectrum on 50 operators",
    "gradient-identity": "max relative gradient error = 2.420e-11",
    "algebra-identities": "max identity deviation 1.589e-14",
    "quadratic-form-identities": "max identity deviation 4.441e-15",
    "rabi-dynamics": "closed form to 4.4e-16, label gap 4.4e-16, FD gap 7.5e-09",
    "intertwining": "10 cases: exact map identity, step CDFs agree within the rounding bound",
    "heisenberg": "equality witness (1,1); 1000 random triples hold",
    "lift-group-law": "lift is a homomorphism on 20 random pairs: transports and barriers equal a.e.",
    "projective-kernel": "lift kernel is exactly the unit phases on 15 pairs",
    "phase-space-expectation": "max |matrix - label| = 8.882e-16",
    "phase-marginals": "max marginal deviation 2.776e-17",
    "no-shared-barrier": "two-point state gap 0.107; random state gap 0.142",
}
