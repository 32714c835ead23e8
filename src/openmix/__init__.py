"""Novel-class discovery on a desk-scale two-head MLP.

A labeled set of old classes pretrains the backbone; an unlabeled set of
disjoint new classes is then clustered with pairwise and pseudo-label
losses, optionally regularized by mixing unlabeled examples with labeled
ones (or with confident anchors) under joint old+new label distributions.
"""
